"""Number formatting shared by the tables and the CLI's text output."""

__all__ = ["format_sig"]


def format_sig(x: float, sig: int = 3) -> str:
    """Scientific notation with a fixed number of significant digits."""
    if x == 0.0:
        return "0"
    return f"{x:.{sig - 1}e}"
