"""Exception types raised across the package.

Every error the library raises deliberately derives from :class:`VqchemError`
so callers (and the CLI) can catch one base class and map it to a process exit
code without string matching.
"""

from __future__ import annotations


class VqchemError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOperator(VqchemError):
    """Operator algebra misuse: bad indices, mismatched sizes, bad letters."""


class SizeLimit(VqchemError):
    """A dense or enumerated object would exceed the supported size."""


class UnsupportedReduction(VqchemError):
    """Two-qubit parity reduction requested where it is not defined."""


class ParseError(VqchemError):
    """Malformed input file: FCIDUMP, ansatz or CI-vector state file."""


class UnsupportedOpenShell(VqchemError):
    """Open-shell electron counts are outside this package's scope."""


class InvalidModel(VqchemError):
    """Malformed model description (bad symbol/dof wiring, bad parameters)."""


class DegenerateOrbitals(VqchemError):
    """MP2 denominators vanish; amplitudes are undefined."""


class InvalidActiveSpace(VqchemError):
    """Requested active-space window is inconsistent with the integral set."""


class InvalidExcitation(VqchemError):
    """Excitation tuple violates index-range, distinctness, or spin balance."""


class InvalidParamMap(VqchemError):
    """param_ids is not a compact 0..n_params-1 surjection or wrong length."""


class ZeroState(VqchemError):
    """An operation received or produced a state with vanishing norm."""


class SolverFailed(VqchemError):
    """An iterative solver did not converge within its iteration budget."""


class InvalidParams(VqchemError):
    """Parameter vector has the wrong length or non-finite entries."""


class InvalidProbability(VqchemError):
    """Noise probability outside [0, 1]."""


class InvalidChannel(VqchemError):
    """Unknown noise channel name or unsupported gate/channel pairing."""


class InvalidSymbol(VqchemError):
    """Unknown operator symbol in a model term."""


class NumericalBlowup(VqchemError):
    """Time integration produced non-finite or absurdly large quantities."""


class FitError(VqchemError):
    """Rate/slope fitting failed (window empty or degenerate data)."""
