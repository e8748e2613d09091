"""Dictionary encoding: constants to dense integers and back."""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dllite.saturation import is_null


class Dictionary:
    """A bidirectional mapping ``constant <-> integer code``.

    Codes are assigned densely in first-seen order, so the encoding is
    deterministic for a deterministic fact stream (the benchmark generator
    is seeded).
    """

    def __init__(self) -> None:
        self._code_of: Dict[str, int] = {}
        self._value_of: List[str] = []
        #: Codes that name labeled nulls (existential witnesses), noted
        #: when the code is allocated so answers can be filtered on
        #: codes, before anything is decoded.
        self._null_codes: Set[int] = set()

    def encode(self, value: str) -> int:
        """The code of *value*, allocating one if unseen."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._value_of)
            self._code_of[value] = code
            self._value_of.append(value)
            if is_null(value):
                self._null_codes.add(code)
        return code

    def encode_many(self, values: Iterable[str]) -> List[int]:
        """Encode a sequence of values."""
        return [self.encode(v) for v in values]

    def try_encode(self, value: str) -> Optional[int]:
        """The code of *value*, or None when it was never encoded.

        Query constants that do not occur in the data have no code; the
        translator turns them into an always-false predicate.
        """
        return self._code_of.get(value)

    def decode(self, code: int) -> str:
        """The constant for *code* (raises IndexError on unknown codes)."""
        return self._value_of[code]

    def decode_row(self, row: Tuple) -> Tuple:
        """Decode every integer in a result row."""
        return tuple(
            self._value_of[v] if isinstance(v, int) and 0 <= v < len(self._value_of) else v
            for v in row
        )

    def decode_rows(
        self, rows: Sequence[Tuple[int, ...]], drop_nulls: bool = False
    ) -> Set[Tuple[str, ...]]:
        """Decode result rows that hold nothing but codes into one set;
        with *drop_nulls*, rows naming a labeled null are left out."""
        if drop_nulls and self._null_codes:
            rows = list(filter(self._null_codes.isdisjoint, rows))
        if not rows:
            return set()
        # Column by column, so that every loop runs in C; zip puts the
        # decoded columns back together as row tuples.
        lookup = self._value_of.__getitem__
        return set(
            zip(
                *(
                    map(lookup, map(itemgetter(column), rows))
                    for column in range(len(rows[0]))
                )
            )
        )

    def __len__(self) -> int:
        return len(self._value_of)

    def __contains__(self, value: str) -> bool:
        return value in self._code_of
