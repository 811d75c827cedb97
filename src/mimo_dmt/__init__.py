"""Diversity-multiplexing tradeoff tools for fading links with an imperfect
transmitter-side channel estimate: a closed-form curve, an exact
vertex-enumeration cross-check, and a finite-SNR Monte Carlo outage sweep."""

from . import channel, cli, oracle, reports, simulate, tradeoff
from .channel import *  # noqa: F403
from .tradeoff import *  # noqa: F403
from .oracle import *  # noqa: F403
from .simulate import *  # noqa: F403
from .reports import *  # noqa: F403
from .cli import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (channel, tradeoff, oracle, simulate, reports, cli)
    for name in module.__all__
] + ["__version__"]
