//! The data preservation block (Fig. 2): classification, archive,
//! dissemination. In the F2C mapping these run mainly at the cloud
//! (permanent storage), with fog layers holding temporary tiers (§IV.B).

mod archive;
mod classification;
mod dissemination;

pub use archive::{ArchivePhase, ArchiveStore};
pub use classification::{ClassificationPhase, Lineage};
pub use dissemination::{AccessRole, OpenDataPortal, QueryFilter};
