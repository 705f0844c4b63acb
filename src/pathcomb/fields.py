"""The integer-field rule of the text formats and the command line.

It imports no other pathcomb module, so the CLI's parser can apply the rule
without loading the rest of the package.
"""


def _plain_int(field: str) -> int:
    """The value of a field that is an optional minus sign and ASCII digits.
    Raises ValueError for every other field, also for those int accepts,
    such as '+1', '1_0' or digits of other scripts."""
    digits = field[1:] if field[:1] == "-" else field
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"not a plain integer: {field!r}")
    return int(field)
