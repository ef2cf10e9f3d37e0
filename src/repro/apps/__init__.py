"""The SAMR application kernels: the paper's validation suite plus 3-D.

============  ==========================================  ==================
Trace name    Kernel                                      Behaviour
============  ==========================================  ==================
``tp2d``      2-D transport benchmark (GrACE)             seemingly random
``bl2d``      Buckley--Leverett oil-water flow (IPARS)    oscillatory
``sc2d``      Scalarwave numerical relativity (Cactus)    oscillatory
``rm2d``      Richtmyer--Meshkov instability (VTF)        seemingly random
``tp3d``      3-D transport benchmark (this repo)         seemingly random
``bl3d``      3-D Buckley--Leverett oil-water flow        oscillatory
``sc3d``      3-D Scalarwave numerical relativity         oscillatory
``rm3d``      3-D Richtmyer--Meshkov instability          seemingly random
============  ==========================================  ==================

The first four are the paper's single-processor traces (section 5.1.1);
the 3-D kernels extend the suite to the hierarchies production SAMR
codes actually run — one 3-D analogue per 2-D family (tp/bl/sc/rm).

Every kernel registers itself with the unified component registry
(``@register("app", name)`` in its own module), so :data:`APPLICATIONS`
is a *live* view: kernels registered at runtime appear here — and
everywhere names are resolved — without touching engine internals.
"""

from ..registry import registry
from .base import ShadowApplication, TraceGenConfig, build_hierarchy, generate_trace
from .bl2d import BuckleyLeverett2D, fractional_flow
from .bl3d import BuckleyLeverett3D
from .rm2d import RichtmyerMeshkov2D
from .rm3d import RichtmyerMeshkov3D
from .sc2d import ScalarWave2D
from .sc3d import ScalarWave3D
from .tp2d import Transport2D
from .tp3d import Transport3D

__all__ = [
    "ShadowApplication",
    "TraceGenConfig",
    "build_hierarchy",
    "generate_trace",
    "BuckleyLeverett2D",
    "BuckleyLeverett3D",
    "fractional_flow",
    "RichtmyerMeshkov2D",
    "RichtmyerMeshkov3D",
    "ScalarWave2D",
    "ScalarWave3D",
    "Transport2D",
    "Transport3D",
    "APPLICATIONS",
    "make_application",
]

#: Live registry view of all kernels, keyed by trace name.
APPLICATIONS = registry("app")


def make_application(name: str, **kwargs) -> ShadowApplication:
    """Instantiate a registered kernel by trace name."""
    return APPLICATIONS.create(name, **kwargs)
