"""Special-function numerics and fractional-integral operators: the
Bessel-Struve kernel, generalized Wright functions, Marichev-Saigo-Maeda
and pathway operators, with built-in identity verification suites.
"""

from ._backend import BACKEND
from .errors import (
    BsfracError,
    ConvergenceError,
    DomainError,
    DomainUnsupportedError,
    PoleError,
    PreconditionError,
    QuadratureError,
    TermCapError,
    UnknownSuiteError,
)
from .gammacore import SignedLogGamma, gamma_ratio, ln_gamma_signed, pochhammer
from .series import (
    SeriesEval,
    bessel_first_kind,
    bessel_struve_kernel,
    struve,
)
from .wright import WrightSpec, wright_delta, wright_eval

# exports of the operator and quadrature modules, which load on first
# access (PEP 562): a cold ``bsfrac eval S`` or ``wright`` never needs them
_LAZY = {
    "msm": ("ClosedFormImage", "FunctionKind", "MsmParams", "Side", "msm_bs_closed_form",
            "msm_power_image", "msm_quadrature"),
    "pathway": ("PathwayDensityParams", "PathwayParams", "Regime", "pathway_bs_closed_form",
                "pathway_density", "pathway_norm_const", "pathway_power_image",
                "pathway_quadrature"),
    "quadrature": ("exp_sinh", "tanh_sinh"),
}


def __getattr__(name):
    from importlib import import_module

    for module, names in _LAZY.items():
        if name == module or name in names:
            # not cached here: the module's own attribute stays the one source
            mod = import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # what dir() lists when every module is loaded, without the loader itself
    listed = {*globals(), *_LAZY, *(n for names in _LAZY.values() for n in names)}
    return sorted(listed - {"_LAZY", "__getattr__", "__dir__"})


__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BsfracError",
    "ClosedFormImage",
    "ConvergenceError",
    "DomainError",
    "DomainUnsupportedError",
    "FunctionKind",
    "MsmParams",
    "PathwayDensityParams",
    "PathwayParams",
    "PoleError",
    "PreconditionError",
    "QuadratureError",
    "Regime",
    "SeriesEval",
    "Side",
    "SignedLogGamma",
    "TermCapError",
    "UnknownSuiteError",
    "WrightSpec",
    "bessel_first_kind",
    "bessel_struve_kernel",
    "exp_sinh",
    "gamma_ratio",
    "ln_gamma_signed",
    "msm_bs_closed_form",
    "msm_power_image",
    "msm_quadrature",
    "pathway_bs_closed_form",
    "pathway_density",
    "pathway_norm_const",
    "pathway_power_image",
    "pathway_quadrature",
    "pochhammer",
    "struve",
    "tanh_sinh",
    "wright_delta",
    "wright_eval",
    "__version__",
]
