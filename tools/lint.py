#!/usr/bin/env python3
"""Project lint: repo-specific invariants no generic tool checks.

Rules
-----
  metrics-registry   Tickers/Histograms enums and their name tables stay in
                     sync (same entry count), and every literal
                     "rocksmash.ticker.<name>" / "rocksmash.histogram.<name>"
                     used anywhere resolves to a registered dotted name.
  metrics-doc        Every registered ticker/histogram name appears in a
                     Ticker/Histogram table of docs/METRICS.md (a
                     `prefix.*` row covers every name under that prefix),
                     and every Name cell of those tables is a registered
                     name of its table's kind.
  mutex-lock-order   Every Mutex member declaration carries a lock-hierarchy
                     comment ("Lock order: ...") on the declaration line or
                     in the comment block directly above it.
  todo-issue-tag     No TODO/FIXME without an issue tag: TODO(#123).
  permit-unchecked   Every PermitUncheckedError() call carries a
                     "why unchecked:" reason comment on the same line or in
                     the lines directly above it.
  blob-options-sync  The fields of struct BlobOptions (src/lsm/options.h),
                     the fields ValidateBlobOptions acknowledges
                     (src/lsm/options.cc), and the option table under
                     "## Value separation" in DESIGN.md name the same set —
                     adding a knob without validating and documenting it is
                     a lint error.
  shared-resources-sync
                     Same contract for struct SharedResourcesOptions
                     (src/lsm/shared_resources.h): every field must be
                     acknowledged by ValidateSharedResourcesOptions
                     (src/lsm/shared_resources.cc) and listed in the
                     resource table under "## Sharding & shared resources"
                     in DESIGN.md.
  one-resource-owner No ThreadPool is constructed in src/ outside
                     src/lsm/shared_resources.cc and src/util/thread_pool.*:
                     long-lived pools belong to SharedResources, and
                     one-off fork-join fan-outs go through RunParallel.

Usage: tools/lint.py [--self-test] [paths...]
Exits 0 when clean, 1 on findings, 2 on usage/internal errors.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_DIRS = ("src", "tests", "tools", "bench", "examples", "fuzz")
SOURCE_EXTS = (".cc", ".h")

METRICS_HEADER = os.path.join("src", "util", "metrics.h")
METRICS_SOURCE = os.path.join("src", "util", "metrics.cc")

METRICS_DOC = os.path.join("docs", "METRICS.md")

BLOB_OPTIONS_HEADER = os.path.join("src", "lsm", "options.h")
BLOB_OPTIONS_SOURCE = os.path.join("src", "lsm", "options.cc")
BLOB_DOC = "DESIGN.md"

SHARED_RES_HEADER = os.path.join("src", "lsm", "shared_resources.h")
SHARED_RES_SOURCE = os.path.join("src", "lsm", "shared_resources.cc")
SHARED_RES_DOC = "DESIGN.md"

# The only files in src/ that may construct a ThreadPool.
POOL_OWNERS = (
    "src/lsm/shared_resources.cc",
    "src/util/thread_pool.h",
    "src/util/thread_pool.cc",
)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def iter_source_files(root, dirs=DEFAULT_DIRS):
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


# ---------------------------------------------------------------- metrics --


def parse_enum_entries(text, enum_name, sentinel):
    """Names declared in `enum <enum_name> ... { A, B, ..., sentinel }`."""
    m = re.search(
        r"enum\s+" + re.escape(enum_name) + r"\s*(?::\s*\w+\s*)?\{(.*?)\}",
        text,
        re.S,
    )
    if m is None:
        return None
    # Strip line comments before splitting: comments may contain commas.
    body = re.sub(r"//[^\n]*", "", m.group(1))
    entries = []
    for raw in body.split(","):
        name = raw.split("=")[0].strip()
        if name and name != sentinel:
            entries.append(name)
    return entries


def parse_name_table(text, table_name):
    """String literals in `const char* const <table_name>[...] = { ... };`"""
    m = re.search(re.escape(table_name) + r"\[[^\]]*\]\s*=\s*\{(.*?)\};", text, re.S)
    if m is None:
        return None
    return re.findall(r'"([^"]*)"', m.group(1))


def check_metrics_registry(root):
    findings = []
    header_path = os.path.join(root, METRICS_HEADER)
    source_path = os.path.join(root, METRICS_SOURCE)
    try:
        header = open(header_path, encoding="utf-8").read()
        source = open(source_path, encoding="utf-8").read()
    except OSError as e:
        return [Finding("metrics-registry", METRICS_HEADER, 1, f"cannot read registry: {e}")]

    registries = (
        ("Tickers", "TICKER_ENUM_MAX", "kTickerNames"),
        ("Histograms", "HISTOGRAM_ENUM_MAX", "kHistogramNames"),
    )
    names_by_table = {}
    for enum_name, sentinel, table in registries:
        entries = parse_enum_entries(header, enum_name, sentinel)
        names = parse_name_table(source, table)
        if entries is None:
            findings.append(Finding("metrics-registry", METRICS_HEADER, 1,
                                    f"enum {enum_name} not found"))
            continue
        if names is None:
            findings.append(Finding("metrics-registry", METRICS_SOURCE, 1,
                                    f"name table {table} not found"))
            continue
        if len(entries) != len(names):
            findings.append(Finding(
                "metrics-registry", METRICS_SOURCE, 1,
                f"{enum_name} has {len(entries)} entries but {table} has "
                f"{len(names)} names — the registry is out of sync"))
        dupes = {n for n in names if names.count(n) > 1}
        for d in sorted(dupes):
            findings.append(Finding("metrics-registry", METRICS_SOURCE, 1,
                                    f"duplicate name {d!r} in {table}"))
        names_by_table[table] = set(names)

    # Every "rocksmash.ticker.<x>" / "rocksmash.histogram.<x>" literal must
    # resolve. These are the property strings callers can pass to
    # DB::GetProperty, so a typo silently reads as "property not found".
    ref_re = re.compile(r'"rocksmash\.(ticker|histogram)\.([a-z0-9._]+)"')
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        for lineno, line in enumerate(read_lines(path), 1):
            for kind, dotted in ref_re.findall(line):
                table = "kTickerNames" if kind == "ticker" else "kHistogramNames"
                known = names_by_table.get(table, set())
                if dotted not in known:
                    findings.append(Finding(
                        "metrics-registry", rel, lineno,
                        f'"rocksmash.{kind}.{dotted}" does not match any '
                        f"registered {kind} name"))
    return findings


# ------------------------------------------------------------ metrics doc --

# Header word of a docs/METRICS.md table -> the name table it documents.
DOC_TABLES = {"Ticker": "kTickerNames", "Histogram": "kHistogramNames"}


def parse_doc_metric_rows(text):
    """(line, kind, cell) for each Name cell of the Ticker/Histogram tables.

    A table starts at a "| Ticker | Name | ..." or "| Histogram | Name | ..."
    header row and ends at the first line that is not a table row.
    """
    rows = []
    table = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.startswith("|"):
            table = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 2 and cells[1] == "Name" and cells[0] in DOC_TABLES:
            table = cells[0]
            continue
        if table is None or len(cells) < 2 or set(cells[1]) <= set("-: "):
            continue
        rows.append((lineno, table, cells[1]))
    return rows


def doc_name_covers(doc_name, name):
    if doc_name.endswith(".*"):
        return name.startswith(doc_name[:-1])
    return doc_name == name


def check_metrics_doc(root):
    """Registered metric names and docs/METRICS.md's tables agree."""
    try:
        source = open(os.path.join(root, METRICS_SOURCE), encoding="utf-8").read()
        doc = open(os.path.join(root, METRICS_DOC), encoding="utf-8").read()
    except OSError as e:
        return [Finding("metrics-doc", METRICS_DOC, 1, f"cannot read: {e}")]

    registered = {}
    for kind, table in DOC_TABLES.items():
        names = parse_name_table(source, table)
        if names is None:
            return [Finding("metrics-doc", METRICS_SOURCE, 1,
                            f"name table {table} not found")]
        registered[kind] = names

    findings = []
    documented = {kind: [] for kind in registered}
    for lineno, kind, cell in parse_doc_metric_rows(doc):
        m = re.fullmatch(r"`([a-z0-9._]+(?:\.\*)?)`", cell)
        if m is None:
            findings.append(Finding(
                "metrics-doc", METRICS_DOC, lineno,
                f"Name cell {cell!r} is not one backticked metric name"))
            continue
        doc_name = m.group(1)
        documented[kind].append(doc_name)
        if not any(doc_name_covers(doc_name, n) for n in registered[kind]):
            findings.append(Finding(
                "metrics-doc", METRICS_DOC, lineno,
                f"`{doc_name}` is not a registered {kind.lower()} name"))
    for kind, names in registered.items():
        for name in names:
            if not any(doc_name_covers(d, name) for d in documented[kind]):
                findings.append(Finding(
                    "metrics-doc", METRICS_SOURCE, 1,
                    f"{kind.lower()} `{name}` is not documented in a "
                    f"{METRICS_DOC} table"))
    return findings


# ------------------------------------------------------- mutex lock order --

# A member/local declaration of the project Mutex type. Matches
# "Mutex mu_;", "mutable Mutex mu;  // ...". Uses of MutexLock (the guard)
# or types merely containing "Mutex" in their name do not match.
MUTEX_DECL_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+\w+\s*;")
LOCK_ORDER_TOKEN = "Lock order:"


def check_mutex_lock_order(root, paths=None):
    findings = []
    for path in paths or iter_source_files(root):
        rel = os.path.relpath(path, root)
        lines = read_lines(path)
        for idx, line in enumerate(lines):
            if not MUTEX_DECL_RE.match(line):
                continue
            if LOCK_ORDER_TOKEN in line:
                continue
            # Walk the contiguous comment block directly above.
            ok = False
            j = idx - 1
            while j >= 0 and lines[j].strip().startswith("//"):
                if LOCK_ORDER_TOKEN in lines[j]:
                    ok = True
                    break
                j -= 1
            if not ok:
                findings.append(Finding(
                    "mutex-lock-order", rel, idx + 1,
                    "Mutex member without a lock-hierarchy comment "
                    '("Lock order: ...")'))
    return findings


# --------------------------------------------------------- todo issue tag --

TODO_RE = re.compile(r"\b(TODO|FIXME)\b")
TODO_TAGGED_RE = re.compile(r"\b(?:TODO|FIXME)\(#\d+\)")


def check_todo_issue_tag(root, paths=None):
    findings = []
    for path in paths or iter_source_files(root):
        rel = os.path.relpath(path, root)
        if os.path.abspath(path) == os.path.abspath(__file__):
            continue  # this file names the rule in its own docs
        for lineno, line in enumerate(read_lines(path), 1):
            if TODO_RE.search(line) and not TODO_TAGGED_RE.search(line):
                findings.append(Finding(
                    "todo-issue-tag", rel, lineno,
                    "TODO/FIXME without an issue tag — use TODO(#123)"))
    return findings


# -------------------------------------------------------- permit unchecked --

PERMIT_RE = re.compile(r"\bPermitUncheckedError\s*\(")
WHY_TOKEN = "why unchecked"
# How far above a call the reason comment may sit (statements wrap).
WHY_LOOKBACK = 6


def check_permit_unchecked(root, paths=None):
    findings = []
    for path in paths or iter_source_files(root):
        rel = os.path.relpath(path, root)
        if rel.replace(os.sep, "/") == "src/util/status.h":
            continue  # the definition site
        lines = read_lines(path)
        for idx, line in enumerate(lines):
            if not PERMIT_RE.search(line):
                continue
            window = lines[max(0, idx - WHY_LOOKBACK):idx + 1]
            if not any(WHY_TOKEN in w for w in window):
                findings.append(Finding(
                    "permit-unchecked", rel, idx + 1,
                    'PermitUncheckedError() without a "why unchecked:" '
                    "reason comment"))
    return findings


# ------------------------------------------------------- blob options sync --


def parse_struct_fields(text, struct_name):
    """Member names of `struct <struct_name> { ... };` (no nested braces)."""
    m = re.search(
        r"struct\s+" + re.escape(struct_name) + r"\s*\{(.*?)\};", text, re.S)
    if m is None:
        return None
    body = re.sub(r"//[^\n]*", "", m.group(1))
    fields = []
    for stmt in body.split(";"):
        decl = stmt.split("=")[0].strip()
        parts = decl.split()
        if len(parts) >= 2:
            fields.append(parts[-1])
    return fields


def parse_blob_validator_fields(text):
    """Fields `ValidateBlobOptions` touches, as `blob.<field>` references."""
    m = re.search(
        r"Status\s+ValidateBlobOptions\s*\([^)]*blob[^)]*\)\s*\{(.*?)\n\}",
        text, re.S)
    if m is None:
        return None
    return set(re.findall(r"\bblob\.(\w+)", m.group(1)))


def parse_blob_doc_fields(text):
    """Backticked field names from the table under "## Value separation"."""
    m = re.search(r"^## Value separation.*?$(.*?)(?:^## |\Z)", text,
                  re.S | re.M)
    if m is None:
        return None
    return re.findall(r"^\|\s*`(\w+)`\s*\|", m.group(1), re.M)


def check_blob_options_sync(root):
    """BlobOptions struct, its validator, and the DESIGN.md table agree."""
    header_path = os.path.join(root, BLOB_OPTIONS_HEADER)
    source_path = os.path.join(root, BLOB_OPTIONS_SOURCE)
    doc_path = os.path.join(root, BLOB_DOC)
    try:
        header = open(header_path, encoding="utf-8").read()
        source = open(source_path, encoding="utf-8").read()
        doc = open(doc_path, encoding="utf-8").read()
    except OSError as e:
        return [Finding("blob-options-sync", BLOB_OPTIONS_HEADER, 1,
                        f"cannot read blob options: {e}")]

    fields = parse_struct_fields(header, "BlobOptions")
    validated = parse_blob_validator_fields(source)
    doc_fields = parse_blob_doc_fields(doc)
    if fields is None:
        return [Finding("blob-options-sync", BLOB_OPTIONS_HEADER, 1,
                        "struct BlobOptions not found")]
    if validated is None:
        return [Finding("blob-options-sync", BLOB_OPTIONS_SOURCE, 1,
                        "ValidateBlobOptions not found")]
    if doc_fields is None:
        return [Finding("blob-options-sync", BLOB_DOC, 1,
                        'option table under "## Value separation" not found')]

    findings = []
    for f in fields:
        if f not in validated:
            findings.append(Finding(
                "blob-options-sync", BLOB_OPTIONS_SOURCE, 1,
                f"BlobOptions::{f} is not acknowledged by "
                "ValidateBlobOptions (validate it, or (void)blob.<field> "
                "with a comment if any value is valid)"))
    for f in validated - set(fields):
        findings.append(Finding(
            "blob-options-sync", BLOB_OPTIONS_SOURCE, 1,
            f"ValidateBlobOptions references blob.{f}, which is not a "
            "BlobOptions field"))
    missing_doc = [f for f in fields if f not in doc_fields]
    extra_doc = [f for f in doc_fields if f not in fields]
    for f in missing_doc:
        findings.append(Finding(
            "blob-options-sync", BLOB_DOC, 1,
            f"BlobOptions::{f} is missing from the option table under "
            '"## Value separation"'))
    for f in extra_doc:
        findings.append(Finding(
            "blob-options-sync", BLOB_DOC, 1,
            f"option table lists `{f}`, which is not a BlobOptions field"))
    return findings


# --------------------------------------------------- shared resources sync --


def parse_shared_validator_fields(text):
    """Fields `ValidateSharedResourcesOptions` touches (`options.<field>`)."""
    m = re.search(
        r"Status\s+ValidateSharedResourcesOptions\s*\([^)]*options[^)]*\)"
        r"\s*\{(.*?)\n\}",
        text, re.S)
    if m is None:
        return None
    return set(re.findall(r"\boptions\.(\w+)", m.group(1)))


def parse_shared_doc_fields(text):
    """Backticked field names from the resource table under
    "## Sharding & shared resources"."""
    m = re.search(r"^## Sharding & shared resources.*?$(.*?)(?:^## |\Z)",
                  text, re.S | re.M)
    if m is None:
        return None
    return re.findall(r"^\|\s*`(\w+)`\s*\|", m.group(1), re.M)


def check_shared_resources_sync(root):
    """SharedResourcesOptions struct, its validator, and DESIGN.md agree."""
    header_path = os.path.join(root, SHARED_RES_HEADER)
    source_path = os.path.join(root, SHARED_RES_SOURCE)
    doc_path = os.path.join(root, SHARED_RES_DOC)
    try:
        header = open(header_path, encoding="utf-8").read()
        source = open(source_path, encoding="utf-8").read()
        doc = open(doc_path, encoding="utf-8").read()
    except OSError as e:
        return [Finding("shared-resources-sync", SHARED_RES_HEADER, 1,
                        f"cannot read shared resources: {e}")]

    fields = parse_struct_fields(header, "SharedResourcesOptions")
    validated = parse_shared_validator_fields(source)
    doc_fields = parse_shared_doc_fields(doc)
    if fields is None:
        return [Finding("shared-resources-sync", SHARED_RES_HEADER, 1,
                        "struct SharedResourcesOptions not found")]
    if validated is None:
        return [Finding("shared-resources-sync", SHARED_RES_SOURCE, 1,
                        "ValidateSharedResourcesOptions not found")]
    if doc_fields is None:
        return [Finding(
            "shared-resources-sync", SHARED_RES_DOC, 1,
            'resource table under "## Sharding & shared resources" '
            "not found")]

    findings = []
    for f in fields:
        if f not in validated:
            findings.append(Finding(
                "shared-resources-sync", SHARED_RES_SOURCE, 1,
                f"SharedResourcesOptions::{f} is not acknowledged by "
                "ValidateSharedResourcesOptions (validate it, or "
                "(void)options.<field> with a comment if any value is valid)"))
    for f in validated - set(fields):
        findings.append(Finding(
            "shared-resources-sync", SHARED_RES_SOURCE, 1,
            f"ValidateSharedResourcesOptions references options.{f}, which is "
            "not a SharedResourcesOptions field"))
    for f in [f for f in fields if f not in doc_fields]:
        findings.append(Finding(
            "shared-resources-sync", SHARED_RES_DOC, 1,
            f"SharedResourcesOptions::{f} is missing from the resource "
            'table under "## Sharding & shared resources"'))
    for f in [f for f in doc_fields if f not in fields]:
        findings.append(Finding(
            "shared-resources-sync", SHARED_RES_DOC, 1,
            f"resource table lists `{f}`, which is not a "
            "SharedResourcesOptions field"))
    return findings


# ------------------------------------------------------ one resource owner --

# make_unique/make_shared<ThreadPool>, new ThreadPool, a named object
# (`ThreadPool pool(4)`, `ThreadPool pool{4}`) or a temporary
# (`ThreadPool(4)`). Pointers, references and `ThreadPool::` do not match.
POOL_CONSTRUCT_RE = re.compile(
    r"make_(?:unique|shared)\s*<\s*ThreadPool\s*>"
    r"|\bnew\s+ThreadPool\b"
    r"|\bThreadPool\s+\w+\s*[({]"
    r"|(?<![\w~:])ThreadPool\s*\(")


def check_one_resource_owner(root, paths=None):
    findings = []
    for path in paths or iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if not rel.startswith("src/") or rel in POOL_OWNERS:
            continue
        for lineno, line in enumerate(read_lines(path), 1):
            code = line.split("//", 1)[0]
            if POOL_CONSTRUCT_RE.search(code):
                findings.append(Finding(
                    "one-resource-owner", rel, lineno,
                    "ThreadPool constructed outside SharedResources — take "
                    "the pool from a SharedResources, or use RunParallel "
                    "for a one-off fan-out"))
    return findings


# -------------------------------------------------------------- self test --

SELF_TEST_SOURCE = """\
// Seeded violations: every rule must fire on this file.
struct Foo {
  Mutex mu_;                       // mutex-lock-order: no comment
};
// TODO: untagged cleanup          // todo-issue-tag
void f() {
  DoThing().PermitUncheckedError();  // permit-unchecked: no reason
}
const char* p = "rocksmash.ticker.not.a.real.ticker";  // metrics-registry
void g() {
  auto pool = std::make_unique<ThreadPool>(2);  // one-resource-owner
}
"""


def run_self_test():
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src"))
        seeded = os.path.join(tmp, "src", "seeded.cc")
        with open(seeded, "w", encoding="utf-8") as f:
            f.write(SELF_TEST_SOURCE)

        expectations = {
            "mutex-lock-order": check_mutex_lock_order(tmp, [seeded]),
            "todo-issue-tag": check_todo_issue_tag(tmp, [seeded]),
            "permit-unchecked": check_permit_unchecked(tmp, [seeded]),
            "one-resource-owner": check_one_resource_owner(tmp, [seeded]),
            # metrics check runs against the real repo registry, with the
            # seeded file injected by scanning tmp through the repo's tables.
        }
        failures = []
        for rule, found in expectations.items():
            if not any(f.rule == rule for f in found):
                failures.append(f"rule {rule} did not fire on seeded violation")

        # metrics-registry: the unresolvable ticker reference must fire when
        # the seeded tree is scanned against the real registry. Clone the
        # registry files into the tmp tree so the check is hermetic.
        os.makedirs(os.path.join(tmp, "src", "util"))
        for rel in (METRICS_HEADER, METRICS_SOURCE):
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                content = f.read()
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        found = check_metrics_registry(tmp)
        if not any(f.rule == "metrics-registry" for f in found):
            failures.append("rule metrics-registry did not fire on seeded violation")

        # metrics-doc: against the registry cloned above and the real doc,
        # an untouched doc must be clean; a dropped row and an unregistered
        # row must each fire.
        os.makedirs(os.path.join(tmp, "docs"))
        with open(os.path.join(REPO_ROOT, METRICS_DOC), encoding="utf-8") as f:
            doc_lines = f.read().splitlines(keepends=True)
        tmp_doc = os.path.join(tmp, METRICS_DOC)

        def metrics_doc_with(lines):
            with open(tmp_doc, "w", encoding="utf-8") as f:
                f.writelines(lines)
            return [f.message for f in check_metrics_doc(tmp)]

        if metrics_doc_with(doc_lines):
            failures.append("rule metrics-doc fired on the real doc")
        dropped = [ln for ln in doc_lines
                   if not ln.startswith("| `BLOCK_CACHE_HIT`")]
        if not any("`block.cache.hit` is not documented" in m
                   for m in metrics_doc_with(dropped)):
            failures.append("rule metrics-doc did not fire on an "
                            "undocumented name")
        bogus = [ln.replace("`block.cache.hit`", "`block.cache.hits`")
                 for ln in doc_lines]
        if not any("`block.cache.hits` is not a registered ticker" in m
                   for m in metrics_doc_with(bogus)):
            failures.append("rule metrics-doc did not fire on an "
                            "unregistered name")

        # blob-options-sync: clone the real trio; untouched it must be
        # clean, and dropping a field row from the DESIGN.md table must fire.
        os.makedirs(os.path.join(tmp, "src", "lsm"))
        for rel in (BLOB_OPTIONS_HEADER, BLOB_OPTIONS_SOURCE, BLOB_DOC):
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                content = f.read()
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        if check_blob_options_sync(tmp):
            failures.append("rule blob-options-sync fired on the real repo")
        with open(os.path.join(tmp, BLOB_DOC), encoding="utf-8") as f:
            doc_lines = f.read().splitlines(keepends=True)
        dropped = [ln for ln in doc_lines if not ln.startswith("| `min_blob_size`")]
        if dropped == doc_lines:
            failures.append("blob-options-sync self-test could not seed a "
                            "violation (no `min_blob_size` row in DESIGN.md)")
        with open(os.path.join(tmp, BLOB_DOC), "w", encoding="utf-8") as f:
            f.writelines(dropped)
        if not any(f.rule == "blob-options-sync"
                   for f in check_blob_options_sync(tmp)):
            failures.append("rule blob-options-sync did not fire on seeded "
                            "violation")

        # shared-resources-sync: clone the real trio (DESIGN.md is already
        # in tmp from the blob clone above — rewrite it fresh); untouched it
        # must be clean, and dropping a field row from the resource table
        # must fire.
        for rel in (SHARED_RES_HEADER, SHARED_RES_SOURCE, SHARED_RES_DOC):
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                content = f.read()
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        if check_shared_resources_sync(tmp):
            failures.append("rule shared-resources-sync fired on the real "
                            "repo")
        with open(os.path.join(tmp, SHARED_RES_DOC), encoding="utf-8") as f:
            doc_lines = f.read().splitlines(keepends=True)
        dropped = [ln for ln in doc_lines
                   if not ln.startswith("| `flush_threads`")]
        if dropped == doc_lines:
            failures.append("shared-resources-sync self-test could not seed "
                            "a violation (no `flush_threads` row in "
                            "DESIGN.md)")
        with open(os.path.join(tmp, SHARED_RES_DOC), "w",
                  encoding="utf-8") as f:
            f.writelines(dropped)
        if not any(f.rule == "shared-resources-sync"
                   for f in check_shared_resources_sync(tmp)):
            failures.append("rule shared-resources-sync did not fire on "
                            "seeded violation")

        # And a clean tree must stay clean: the lock-order comment form used
        # across the repo must satisfy the checker.
        clean = os.path.join(tmp, "src", "clean.cc")
        with open(clean, "w", encoding="utf-8") as f:
            f.write("struct Bar {\n"
                    "  // Lock order: leaf.\n"
                    "  Mutex mu_;\n"
                    "};\n"
                    "void g() {\n"
                    "  // why unchecked: best-effort cleanup.\n"
                    "  DoThing().PermitUncheckedError();\n"
                    "}\n")
        for rule, checker in (("mutex-lock-order", check_mutex_lock_order),
                              ("permit-unchecked", check_permit_unchecked)):
            if checker(tmp, [clean]):
                failures.append(f"rule {rule} fired on a compliant file")

        # one-resource-owner: every construction form fires outside the
        # owners; the same code inside an owner, and pool pointers taken
        # from a SharedResources anywhere, do not.
        for form in ("std::make_shared<ThreadPool>(1)", "new ThreadPool(1)",
                     "ThreadPool pool(1, \"x\")", "ThreadPool pool{1}",
                     "ThreadPool(1).Shutdown()"):
            stray = os.path.join(tmp, "src", "stray.cc")
            with open(stray, "w", encoding="utf-8") as f:
                f.write("void h() { " + form + "; }\n")
            if not check_one_resource_owner(tmp, [stray]):
                failures.append(f"rule one-resource-owner did not fire on "
                                f"`{form}`")
        owner = os.path.join(tmp, "src", "lsm", "shared_resources.cc")
        with open(owner, "w", encoding="utf-8") as f:
            f.write("auto p = std::make_unique<ThreadPool>(1);\n")
        borrower = os.path.join(tmp, "src", "borrower.cc")
        with open(borrower, "w", encoding="utf-8") as f:
            f.write("class ThreadPool;\n"
                    "ThreadPool* pool = shared->flush_pool();  // ThreadPool(\n"
                    "ThreadPool& ref = *pool;\n"
                    "ThreadPool::Task t;\n")
        if check_one_resource_owner(tmp, [owner, borrower]):
            failures.append("rule one-resource-owner fired on compliant "
                            "code")

        if failures:
            for f in failures:
                print(f"self-test FAIL: {f}", file=sys.stderr)
            return 1
        print("self-test OK: all rules fire on seeded violations and "
              "accept compliant code")
        return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on seeded violations")
    parser.add_argument("paths", nargs="*",
                        help="restrict mutex/todo/permit checks to these files")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    paths = [os.path.abspath(p) for p in args.paths] or None
    findings = []
    findings += check_metrics_registry(REPO_ROOT)
    findings += check_metrics_doc(REPO_ROOT)
    findings += check_blob_options_sync(REPO_ROOT)
    findings += check_shared_resources_sync(REPO_ROOT)
    findings += check_mutex_lock_order(REPO_ROOT, paths)
    findings += check_todo_issue_tag(REPO_ROOT, paths)
    findings += check_permit_unchecked(REPO_ROOT, paths)
    findings += check_one_resource_owner(REPO_ROOT, paths)

    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
