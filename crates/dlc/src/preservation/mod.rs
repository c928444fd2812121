//! The data preservation block (Fig. 2): classification and archive. In
//! the F2C mapping these run mainly at the cloud
//! (permanent storage), with fog layers holding temporary tiers (§IV.B).

mod archive;
mod classification;
mod run;

pub use archive::ArchiveStore;
pub use classification::classify;
