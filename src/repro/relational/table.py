"""Columnar tables over numpy arrays.

Tables hold one numpy array per column.  All values are stored as numeric
codes (``int64`` or ``float64``); string-valued attributes are dictionary
encoded, with the code -> string mapping kept in ``decoders`` so examples and
reports can render human-readable values.  Numeric encoding keeps every
operation the designer needs — predicate masks, lexicographic sorts, distinct
counts, joins on keys — as vectorized numpy, which is what makes running the
paper's experiments over hundreds of thousands of rows tractable in Python.
"""

from __future__ import annotations

import numpy as np

from repro.relational.schema import TableSchema


class Table:
    """A columnar table: a schema plus equal-length numpy arrays per column."""

    def __init__(
        self,
        schema: TableSchema,
        columns: dict[str, np.ndarray],
        decoders: dict[str, list[str]] | None = None,
    ) -> None:
        missing = set(schema.column_names) - set(columns)
        if missing:
            raise ValueError(f"missing arrays for columns {sorted(missing)}")
        lengths = {name: len(arr) for name, arr in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged column lengths: {lengths}")
        self.schema = schema
        self._columns = {
            name: np.asarray(columns[name]) for name in schema.column_names
        }
        self.decoders = dict(decoders or {})

    # ------------------------------------------------------------------ core

    @property
    def nrows(self) -> int:
        first = next(iter(self._columns.values()), None)
        return 0 if first is None else len(first)

    @property
    def column_names(self) -> list[str]:
        return self.schema.column_names

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} in table {self.schema.name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def row_bytes(self, names: list[str] | tuple[str, ...] | None = None) -> int:
        return self.schema.byte_size(names)

    def total_bytes(self, names: list[str] | tuple[str, ...] | None = None) -> int:
        return self.nrows * self.row_bytes(names)

    # ------------------------------------------------------------ operations

    def project(self, names: list[str], new_name: str | None = None) -> "Table":
        """Keep only ``names`` (deduplicated, schema order preserved)."""
        schema = self.schema.project(list(dict.fromkeys(names)), new_name)
        cols = {n: self._columns[n] for n in schema.column_names}
        decoders = {n: d for n, d in self.decoders.items() if n in cols}
        return Table(schema, cols, decoders)

    def select(self, mask_or_index: np.ndarray, new_name: str | None = None) -> "Table":
        """Rows where a boolean mask is true, or rows at integer positions."""
        cols = {n: arr[mask_or_index] for n, arr in self._columns.items()}
        schema = self.schema
        if new_name is not None:
            schema = TableSchema(new_name, schema.columns, schema.primary_key)
        return Table(schema, cols, self.decoders)

    def sort_permutation(self, keys: tuple[str, ...] | list[str]) -> np.ndarray:
        """Stable permutation ordering rows lexicographically by ``keys``."""
        if not keys:
            return np.arange(self.nrows)
        # np.lexsort sorts by the *last* key first.
        arrays = [self._columns[k] for k in reversed(list(keys))]
        return np.lexsort(arrays)

    def order_by(self, keys: tuple[str, ...] | list[str]) -> "Table":
        return self.select(self.sort_permutation(keys))

    def distinct_count(self, names: tuple[str, ...] | list[str]) -> int:
        """Number of distinct (joint) values of ``names``."""
        if not names:
            return 1
        if self.nrows == 0:
            return 0
        codes = np.sort(self._key_codes(tuple(names)))
        return 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))

    def distinct_rows(self, names: tuple[str, ...] | list[str]) -> "Table":
        """One representative row per distinct joint value of ``names``."""
        codes = self._key_codes(tuple(names))
        _, idx = np.unique(codes, return_index=True)
        return self.project(list(names)).select(np.sort(idx))

    def sample(self, n: int, seed: int = 0) -> "Table":
        """Uniform random sample without replacement of min(n, nrows) rows."""
        rng = np.random.default_rng(seed)
        take = min(n, self.nrows)
        idx = rng.choice(self.nrows, size=take, replace=False)
        return self.select(np.sort(idx))

    def _key_codes(self, names: tuple[str, ...]) -> np.ndarray:
        """Collapse a joint key into a single integer code array (row-wise):
        two rows share a code iff their key values compare equal."""
        if len(names) == 1:
            arr = self._columns[names[0]]
            if arr.dtype.kind in "iu":
                return arr
            # By value, not by bit pattern: -0.0 and 0.0 are one key.
            return np.unique(arr, return_inverse=True)[1]
        # Mixed-radix packing: offset each column to be non-negative, then
        # combine. Falls back to structured-array uniqueness if it would
        # overflow 63 bits.
        arrays = [np.asarray(self._columns[n]) for n in names]
        if all(a.dtype.kind in "iu" for a in arrays):
            code = np.zeros(self.nrows, dtype=np.int64)
            overflow = False
            for a in arrays:
                lo = int(a.min()) if len(a) else 0
                hi = int(a.max()) if len(a) else 0
                span = hi - lo + 1
                if span <= 0 or code.max(initial=0) > (2**62) // max(span, 1):
                    overflow = True
                    break
                code = code * span + (a.astype(np.int64) - lo)
            if not overflow:
                return code
        rec = np.rec.fromarrays(arrays)
        _, inverse = np.unique(rec, return_inverse=True)
        return inverse.astype(np.int64)

    def decode(self, name: str, code: int) -> str | int:
        """Render a stored code as its original value when a decoder exists."""
        decoder = self.decoders.get(name)
        if decoder is None:
            return int(code)
        return decoder[int(code)]

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, rows={self.nrows})"


def hash_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    new_name: str | None = None,
) -> Table:
    """Equi-join ``left`` with ``right`` (right key assumed unique — a
    dimension primary key).  Produces left's columns plus right's non-key
    columns, in left-row order.  Used to flatten fact tables through their
    foreign keys.
    """
    rkeys = right.column(right_key)
    order = np.argsort(rkeys, kind="stable")
    sorted_keys = rkeys[order]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():  # sorted: dupes adjoin
        raise ValueError(f"join key {right_key!r} is not unique in {right.schema.name!r}")
    lkeys = left.column(left_key)
    pos = np.searchsorted(sorted_keys, lkeys)
    pos = np.clip(pos, 0, len(sorted_keys) - 1)
    if not np.array_equal(sorted_keys[pos], lkeys):
        raise ValueError(
            f"dangling foreign key: some {left.schema.name}.{left_key} values "
            f"missing from {right.schema.name}.{right_key}"
        )
    take = order[pos]

    columns = {n: left.column(n) for n in left.column_names}
    schema_cols = list(left.schema.columns)
    decoders = dict(left.decoders)
    for col in right.schema.columns:
        if col.name == right_key:
            continue
        if col.name in columns:
            raise ValueError(f"join would duplicate column {col.name!r}")
        columns[col.name] = right.column(col.name)[take]
        schema_cols.append(col)
        if col.name in right.decoders:
            decoders[col.name] = right.decoders[col.name]
    schema = TableSchema(
        new_name or f"{left.schema.name}_join_{right.schema.name}",
        schema_cols,
        left.schema.primary_key,
    )
    return Table(schema, columns, decoders)
