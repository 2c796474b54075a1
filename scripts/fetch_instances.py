#!/usr/bin/env python3
"""Download the published benchmark graphs used by the acceptance suite.

The repository ships only the karate club graph.  The remaining
benchmarks are published network datasets; this script tries a list of
known mirrors for each, normalizes whatever it finds (edge list,
MatrixMarket, or Pajek .net; archives are unpacked in memory) into a
plain two-column edge list under data/instances/, and verifies the
parsed (|V|, |E|) against the expected sizes before keeping the file.

Mirrors move around.  If every candidate URL fails for a dataset you
can point the script at a replacement with --url NAME=URL, or at an
already-downloaded archive or graph file with --file NAME=PATH.

Exit status is 0 only when every dataset is present and verified.
"""

import argparse
import io
import sys
import tarfile
import urllib.request
import zipfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from profitcover.instances import load_graph  # noqa: E402

DATA_DIR = Path(__file__).resolve().parents[1] / "data" / "instances"

# name -> (expected (|V|, |E|) after cleaning, candidate URLs)
DATASETS = {
    "karate": ((34, 78), (
        "https://nrvis.com/download/data/soc/soc-karate.zip",
    )),
    "farm": ((17, 39), (
        "https://nrvis.com/download/data/eco/eco-farm.zip",
        "https://nrvis.com/download/data/misc/farm.zip",
    )),
    "football": ((35, 118), (
        "http://vlado.fmf.uni-lj.si/pub/networks/data/sport/football.net",
        "https://nrvis.com/download/data/misc/football.zip",
    )),
    "rt-retweet": ((96, 117), (
        "https://nrvis.com/download/data/rt/rt-retweet.zip",
    )),
    "mammalia-kangaroo-interactions": ((17, 91), (
        "https://nrvis.com/download/data/asn/mammalia-kangaroo-interactions.zip",
        "https://nrvis.com/download/data/dynamic/mammalia-kangaroo-interactions.zip",
    )),
    "chesapeake": ((39, 170), (
        "https://nrvis.com/download/data/dimacs10/chesapeake.zip",
        "https://suitesparse-collection-website.herokuapp.com/MM/DIMACS10/chesapeake.tar.gz",
        "https://www.cise.ufl.edu/research/sparse/MM/DIMACS10/chesapeake.tar.gz",
    )),
}

GRAPH_SUFFIXES = (".mtx", ".mm", ".edges", ".txt", ".csv", ".net")


def _pairs_from_matrix_market(lines):
    """Entry pairs of an .mtx body; tolerates a missing banner line."""
    dims_seen = False
    for line in lines:
        body = line.strip()
        if not body or body.startswith("%"):
            continue
        if not dims_seen:
            dims_seen = True  # "rows cols nnz" size line, not an entry
            continue
        parts = body.split()
        yield parts[0], parts[1]


def _pairs_from_pajek(lines):
    """Pairs from the *arcs / *edges sections of a Pajek .net file."""
    in_links = False
    for line in lines:
        body = line.strip()
        if not body:
            continue
        if body.startswith("*"):
            in_links = body.lower().startswith(("*arcs", "*edges"))
            continue
        if in_links:
            parts = body.split()
            if len(parts) >= 2:
                yield parts[0], parts[1]


def _pairs_from_edge_list(lines):
    for line in lines:
        body = line.split("#", 1)[0].split("%", 1)[0].strip()
        parts = body.replace(",", " ").split()
        if len(parts) >= 2:
            yield parts[0], parts[1]


def normalize(text: str, member_name: str) -> str:
    """Convert a downloaded graph file into a plain two-column edge list."""
    lines = text.splitlines()
    suffix = Path(member_name).suffix.lower()
    if suffix in (".mtx", ".mm"):
        pairs = _pairs_from_matrix_market(lines)
    elif suffix == ".net":
        pairs = _pairs_from_pajek(lines)
    else:
        pairs = _pairs_from_edge_list(lines)
    return "".join(f"{u} {v}\n" for u, v in pairs)


def _pick_member(names, dataset):
    """Choose the graph file inside an archive, preferring a name match."""
    candidates = [n for n in names
                  if Path(n).suffix.lower() in GRAPH_SUFFIXES
                  and "readme" not in Path(n).name.lower()]
    candidates.sort(key=lambda n: (dataset not in Path(n).name.lower(), len(n)))
    return candidates[0] if candidates else None


def extract_graph_text(payload: bytes, source_name: str, dataset: str):
    """Return (member_name, text) from raw bytes, unpacking archives."""
    if zipfile.is_zipfile(io.BytesIO(payload)):
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            member = _pick_member(zf.namelist(), dataset)
            if member is None:
                raise ValueError("no graph file inside the zip archive")
            return member, zf.read(member).decode("utf-8", errors="replace")
    try:
        with tarfile.open(fileobj=io.BytesIO(payload)) as tf:
            member = _pick_member(tf.getnames(), dataset)
            if member is None:
                raise ValueError("no graph file inside the tar archive")
            fh = tf.extractfile(member)
            return member, fh.read().decode("utf-8", errors="replace")
    except tarfile.TarError:
        pass
    return source_name, payload.decode("utf-8", errors="replace")


def download(url: str, timeout: float) -> bytes:
    req = urllib.request.Request(url, headers={"User-Agent": "profitcover-fetch/1.0"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read()


def install(dataset: str, payload: bytes, source: str) -> str:
    """Normalize, verify, and write one dataset; returns a status message.

    The edge list is written and loaded under a temporary name in
    DATA_DIR, and moved into place only once its (|V|, |E|) matches, so a
    payload that fails to parse or to match leaves no file behind.
    """
    expected, _ = DATASETS[dataset]
    member, text = extract_graph_text(payload, source, dataset)
    out = DATA_DIR / f"{dataset}.edges"
    tmp = DATA_DIR / f".{dataset}.edges.tmp"
    try:
        tmp.write_text(normalize(text, member))
        g = load_graph(tmp)
        if (g.n, g.m) != expected:
            raise ValueError(f"{source} ({member}) parsed to (|V|,|E|)=({g.n},{g.m}), "
                             f"expected {expected}")
        tmp.replace(out)
    finally:
        tmp.unlink(missing_ok=True)
    return f"wrote {out.name} from {source}: (|V|,|E|)={expected}"


def fetch(dataset: str, urls, local: Path | None, timeout: float) -> bool:
    expected, _ = DATASETS[dataset]
    existing = DATA_DIR / f"{dataset}.edges"
    if existing.exists():
        try:
            g = load_graph(existing)
        except Exception as err:
            print(f"[warn] {dataset}: existing file does not load ({err}), refetching")
        else:
            if (g.n, g.m) == expected:
                print(f"[ok]   {dataset}: already present, (|V|,|E|)={expected}")
                return True
            print(f"[warn] {dataset}: existing file has (|V|,|E|)=({g.n},{g.m}), refetching")
    if local is not None:
        try:
            print(f"[ok]   {dataset}: {install(dataset, local.read_bytes(), str(local))}")
            return True
        except Exception as err:
            print(f"[fail] {dataset}: local file {local}: {err}")
            return False
    for url in urls:
        try:
            payload = download(url, timeout)
            print(f"[ok]   {dataset}: {install(dataset, payload, url)}")
            return True
        except Exception as err:
            print(f"[..]   {dataset}: {url}: {err}")
    print(f"[fail] {dataset}: every mirror failed; supply --url {dataset}=URL "
          f"or --file {dataset}=PATH")
    return False


def _parse_overrides(items, label):
    out = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        if not sep or name not in DATASETS:
            raise SystemExit(f"bad {label} override {item!r}; "
                             f"names: {', '.join(DATASETS)}")
        out[name] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="datasets to fetch (default: all)")
    parser.add_argument("--url", action="append", metavar="NAME=URL",
                        help="try URL first for the named dataset")
    parser.add_argument("--file", action="append", metavar="NAME=PATH",
                        help="install the named dataset from a local file or archive")
    parser.add_argument("--timeout", type=float, default=30.0)
    args = parser.parse_args(argv)

    url_overrides = _parse_overrides(args.url, "--url")
    file_overrides = _parse_overrides(args.file, "--file")
    names = args.names or list(DATASETS)
    unknown = [n for n in names if n not in DATASETS]
    if unknown:
        raise SystemExit(f"unknown datasets: {', '.join(unknown)}; "
                         f"names: {', '.join(DATASETS)}")

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in names:
        urls = DATASETS[name][1]
        if name in url_overrides:
            urls = (url_overrides[name],) + tuple(urls)
        local = Path(file_overrides[name]) if name in file_overrides else None
        ok &= fetch(name, urls, local, args.timeout)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
