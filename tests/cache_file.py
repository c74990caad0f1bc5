"""Edit a partition cache file in place, with or without keeping its digest.

A cache file is a header line of six fields (magic, schema, family, rank,
root-order hash, digest), then one record line per x.  The digest is
recomputed here with hashlib, which shares no code with the package's
own SHA-256.
"""

import hashlib


def digest(body: bytes) -> str:
    """The header digest of the record bytes `body`: their SHA-256."""
    return hashlib.sha256(body).hexdigest()


def split(path):
    """(header fields, record lines) of the cache file at path."""
    head, _, body = path.read_text().partition("\n")
    return head.split(" "), body.splitlines()


def rewrite(path, edit, rehash=True):
    """Apply edit(header, records) to the header fields and record lines
    of the cache file at path, both lists edited in place, and write the
    file back.  rehash sets the digest to that of the edited records, so
    only the checks after the digest can catch the edit."""
    header, records = split(path)
    edit(header, records)
    body = "".join(line + "\n" for line in records).encode()
    if rehash:
        header[5] = digest(body)
    path.write_bytes(" ".join(header).encode() + b"\n" + body)


def editing(edit, rehash=True):
    """A function of a path that applies ``rewrite(path, edit, rehash)``."""
    return lambda path: rewrite(path, edit, rehash)
