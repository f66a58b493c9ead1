"""Number formatting shared by the tables and the CLI's text output."""

from .errors import ParamError

__all__ = ["format_sig"]


def format_sig(x: float, sig: int = 3) -> str:
    """Scientific notation with ``sig >= 1`` significant digits; ParamError for fewer."""
    if sig < 1:
        raise ParamError(f"sig must be >= 1, got {sig}")
    if x == 0.0:
        return "0"
    return f"{x:.{sig - 1}e}"
