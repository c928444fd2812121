#!/usr/bin/env python3
"""Narrowing audit: which `pub` items of the library crates have no consumer
outside their own crate?

The audit copies the working tree to a temporary directory and edits only
the copy. There it turns every `pub` item declaration under `crates/*/src`
(`src/bin` excluded) into `pub(crate)`. That covers `fn`, `struct`, `enum`,
`const`, `static`, `type`, `trait`, `mod` and `use`. It then restores `pub` on
exactly the declarations that the build set's diagnostics point at, round
after round, until the build set compiles:

    cargo check --workspace --all-targets
    cargo check --manifest-path benchmark/Cargo.toml --all-targets
    cargo test --workspace --doc --no-fail-fast

A diagnostic names a declaration when one of its secondary locations (a
"defined here" note, or the `but type ... is only usable at` note of a
`private_interfaces` warning) lands on a narrowed line. Its primary location
is the consumer. A restored `pub use` of a still-narrowed item (E0364,
E0365) carries no location, so the item is found by name among the
module-level declarations of the same crate. The declarations still
narrowed at the end had no consumer outside their crate. The script prints
them and exits 1 if there are any.

    scripts/pub_audit.py                  # print the items that can narrow
    scripts/pub_audit.py --table FILE     # also list each pub item with one outside consumer
    scripts/pub_audit.py --patch FILE     # also write the narrowing as a patch for `git apply`

Set PUB_AUDIT_TARGET_DIR to keep the cargo target directory between runs. A
run takes about 55 `cargo` rounds, 8 to 10 minutes on two cores, so CI
leaves it out. CI's part of the ratchet is the `unreachable_pub` lint at
every library crate root.
"""

import argparse
import difflib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ITEM = re.compile(
    r"^(\s*)pub (?=(?:const |unsafe |async |extern \S+ )*"
    r"(?:fn|struct|enum|const|static|type|trait|mod|use|union)\b)"
)
HEADER = re.compile(r"^(error|warning)(?:\[E\d+\])?: (.*)$")
LOCATION = re.compile(r"^\s*(?:-->|:::)\s+(.+?):(\d+):\d+\s*$")
SOURCE = re.compile(r"^\s*\d+\s*\| (.*)$")
# E0364 / E0365: a restored `pub use` re-exports a declaration that is still
# narrowed. rustc names it but gives no location.
REEXPORT = re.compile(r"^`(\w+)` is (?:only public within the crate|private)")


def library_sources(root):
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        rel = path.relative_to(root)
        if rel.parts[3] != "bin":
            yield rel


def copy_tree(src, dst):
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=src, check=True, capture_output=True,
    ).stdout.split(b"\0")
    for name in filter(None, files):
        rel = Path(os.fsdecode(name))
        if not (src / rel).is_file():
            continue
        (dst / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src / rel, dst / rel)


def diagnostics(output):
    """Split rustc's human-readable output into diagnostics.

    Each is (kind, message, locations, primary source line)."""
    diag = None
    for line in output.splitlines():
        head = HEADER.match(line)
        if head:
            if diag:
                yield diag
            diag = [head.group(1), head.group(2), [], ""]
            continue
        if not diag:
            continue
        loc = LOCATION.match(line)
        if loc:
            diag[2].append((loc.group(1), int(loc.group(2))))
            continue
        src = SOURCE.match(line)
        if src and len(diag[2]) == 1 and not diag[3]:
            diag[3] = src.group(1)
    if diag:
        yield diag


def module_name(rel):
    return rel.parent.name if rel.name in ("mod.rs", "lib.rs") else rel.stem


class Audit:
    def __init__(self, tree):
        self.tree = tree
        # (relative file, 1-based line) -> original line text
        self.narrowed = {}
        # (relative file, 1-based line) -> its consumer, same form
        self.restored = {}
        self.lines = {}
        self.original = {}
        # continuation line of a multi-line `use` -> the line it starts on
        self.use_lines = {}

    def narrow(self):
        for rel in library_sources(self.tree):
            self.original[rel] = (self.tree / rel).read_text()
            lines = self.original[rel].split("\n")
            for i, line in enumerate(lines):
                if ITEM.match(line):
                    self.narrowed[(rel, i + 1)] = line
                    lines[i] = ITEM.sub(r"\1pub(crate) ", line, count=1)
                    if line.lstrip().startswith("pub use"):
                        j = i
                        while ";" not in lines[j] and j + 1 < len(lines):
                            j += 1
                            self.use_lines[(rel, j + 1)] = (rel, i + 1)
            self.lines[rel] = lines
            (self.tree / rel).write_text("\n".join(lines))

    def resolve(self, path):
        p = Path(path)
        if p.is_absolute():
            try:
                p = p.relative_to(self.tree)
            except ValueError:
                return None
        elif not (self.tree / p).exists() and (self.tree / "benchmark" / p).exists():
            # The benchmark package reports paths relative to its own root.
            p = Path("benchmark") / p
        return p

    def restore_from(self, output):
        """Restore every narrowed declaration a diagnostic points at.

        Cargo builds crates in parallel, so the order of one round's
        diagnostics varies from run to run. When several of them name the
        same declaration, the least consumer location, by path and then
        line, is the one kept, so the table is a function of the code.

        Returns (restored count, diagnostics that named nothing)."""
        found, unexplained = {}, []
        for kind, message, locs, source in diagnostics(output):
            if kind == "warning" and "more private than" not in message:
                continue
            if kind == "error" and message.startswith(("aborting", "could not compile")):
                continue
            if not locs:
                continue
            consumer = (self.resolve(locs[0][0]) or Path(locs[0][0]), locs[0][1])
            hits = []
            for path, line in locs[1:]:
                key = (self.resolve(path), line)
                key = self.use_lines.get(key, key)
                if key in self.narrowed and key not in self.restored:
                    hits.append(key)
            reexport = REEXPORT.match(message)
            if reexport and not hits:
                hits = self.declarations(reexport.group(1), self.resolve(locs[0][0]), source)
            if not hits and kind == "error":
                unexplained.append("%s: %s at %s:%d" % (kind, message, *consumer))
            for key in hits:
                if key not in found or (str(consumer[0]), consumer[1]) < (
                        str(found[key][0]), found[key][1]):
                    found[key] = consumer
        self.restored.update(found)
        for rel in {rel for rel, _ in found}:
            lines = self.lines[rel]
            for (f, line), _ in self.restored.items():
                if f == rel:
                    lines[line - 1] = self.narrowed[(f, line)]
            (self.tree / rel).write_text("\n".join(lines))
        return len(found), unexplained

    def declarations(self, name, user, source):
        """Narrowed declarations of `name` in the crate of `user`.

        Several modules may declare the same name; module-level ones whose
        module is a segment of the re-exporting line's path win."""
        if user is None:
            return []
        decl = re.compile(r"^\s*pub (?:(?:const|unsafe|async) )*"
                          r"(?:fn|struct|enum|const|static|type|trait|mod|union) %s\b" % name)
        used = re.compile(r"^\s*pub use .*\b%s\b" % name)
        found = [key for key, text in self.narrowed.items()
                 if key not in self.restored and key[0].parts[:2] == user.parts[:2]
                 and (decl.match(text) or used.match(text))]
        # A `use` names module-level items: an indented declaration sits
        # in an impl or a nested (test) module.
        found = [key for key in found if not self.narrowed[key][0].isspace()] or found
        segments = set(re.findall(r"\w+", source))
        preferred = [key for key in found if module_name(key[0]) in segments]
        return preferred or found

    def outside_consumer(self, key):
        """Follows re-export chains until the consumer is outside the
        declaring crate (or the chain ends)."""
        consumer = self.restored[key]
        for _ in range(16):
            consumer = self.use_lines.get(consumer, consumer)
            if consumer not in self.restored or consumer == key:
                break
            consumer = self.restored[consumer]
        return consumer

    def describe(self, declared, where, at):
        """A consumer's file, labelled when it sits in the declaring crate:
        a doctest, or a `pub` item whose signature exposes the declaration.
        The line is left out, so an edit that only moves the consumer's
        lines leaves its row as it was."""
        loc = "`%s`" % where
        inside = where.parts[:3] == declared.parts[:3] and "bin" not in where.parts
        if not inside or not (self.tree / where).is_file():
            return loc
        text = (self.tree / where).read_text().split("\n")[at - 1].lstrip()
        return ("doctest " if text.startswith(("///", "//!")) else "exposed by ") + loc

    def table(self):
        """Markdown: each restored declaration, per crate, with one
        consumer outside its crate."""
        name = re.compile(r"pub ((?:(?:const|unsafe|async) )*"
                          r"(?:fn|struct|enum|const|static|type|trait|mod|union) \w+)")
        out = [
            "# Public API audit",
            "",
            "Every `pub` item declared in a library crate (`crates/*/src`, binaries",
            "excluded), with the file of one consumer outside its crate: once the",
            "item was narrowed to `pub(crate)`, the least location (by path, then",
            "line) among the diagnostics of the first build-set round that named",
            "it (re-export chains followed). A consumer inside the",
            "declaring crate is one of its doctests, or a `pub` item whose",
            "signature exposes the declaration. Regenerate with",
            "`scripts/pub_audit.py --table docs/pub-audit.md`.",
        ]
        crates = sorted({rel.parts[1] for rel, _ in self.restored})
        for crate in crates:
            keys = sorted(k for k in self.restored if k[0].parts[1] == crate)
            out += ["", "## %s (%d)" % (crate, len(keys)), "",
                    "| Declared in | Item | One outside consumer |", "|---|---|---|"]
            for rel, line in keys:
                text = self.narrowed[(rel, line)].strip()
                m = name.match(text)
                item = m.group(0) if m else text.rstrip("{; ")
                where, at = self.outside_consumer((rel, line))
                out.append("| `%s` | `%s` | %s |"
                           % (Path(*rel.parts[2:]), item, self.describe(rel, where, at)))
        return "\n".join(out) + "\n"

    def remaining(self):
        return sorted(k for k in self.narrowed if k not in self.restored)


def run(cmd, cwd, env):
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--table", type=Path, help="write each pub item and one outside consumer")
    ap.add_argument("--patch", type=Path, help="write the narrowing as a patch")
    args = ap.parse_args()

    root = Path(
        subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                       capture_output=True, text=True).stdout.strip()
    )
    with tempfile.TemporaryDirectory(prefix="pub-audit-") as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(root, tree)
        env = dict(os.environ, CARGO_TERM_COLOR="never")
        env["CARGO_TARGET_DIR"] = os.environ.get("PUB_AUDIT_TARGET_DIR", str(Path(tmp) / "target"))
        audit = Audit(tree)
        audit.narrow()
        print("narrowed %d declarations" % len(audit.narrowed), file=sys.stderr)

        checks = [
            ["cargo", "check", "--offline", "--keep-going", "--workspace", "--all-targets"],
            ["cargo", "check", "--offline", "--keep-going",
             "--manifest-path", "benchmark/Cargo.toml", "--all-targets"],
            ["cargo", "test", "--offline", "--workspace", "--doc", "--no-fail-fast"],
        ]
        rounds = 0
        while True:
            progressed = False
            for cmd in checks:
                while True:
                    rounds += 1
                    status, output = run(cmd, tree, env)
                    count, unexplained = audit.restore_from(output)
                    print("round %d: %s: restored %d" % (rounds, " ".join(cmd[1:3]), count),
                          file=sys.stderr)
                    if count:
                        progressed = True
                        continue
                    if status != 0:
                        print(output[-4000:], file=sys.stderr)
                        for u in unexplained:
                            print("unexplained: " + u, file=sys.stderr)
                        sys.exit("build set fails for a reason the narrowing does not explain")
                    break
            if not progressed:
                break

        left = audit.remaining()
        for rel, line in left:
            print("%s:%d: %s" % (rel, line, audit.narrowed[(rel, line)].strip()))
        print("%d of %d pub declarations can narrow (%d cargo rounds)"
              % (len(left), len(audit.narrowed), rounds), file=sys.stderr)

        if args.table:
            args.table.write_text(audit.table())
        if args.patch:
            with open(args.patch, "w") as out:
                for rel in sorted({rel for rel, _ in left}):
                    before = audit.original[rel].splitlines(keepends=True)
                    after = (tree / rel).read_text().splitlines(keepends=True)
                    out.writelines(difflib.unified_diff(
                        before, after, "a/%s" % rel, "b/%s" % rel))
        sys.exit(1 if left else 0)


if __name__ == "__main__":
    main()
