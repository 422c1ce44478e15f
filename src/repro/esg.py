"""The EarthSystemGrid facade: the whole prototype behind one object.

Also home of the **Data Grid Reference Architecture** registry
(Figure 5): components register at the fabric / connectivity / resource /
collective / application layers, and :meth:`EarthSystemGrid.layers`
exposes the wired instance — the structural claim of the figure is that
each layer only builds on the ones below, which
:meth:`LayeredArchitecture.check_dependencies` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cdat.analysis import time_mean, zonal_mean
from repro.cdat.viz import render_field, render_profile
from repro.scenarios.esg import EsgTestbed

LAYERS = ("fabric", "connectivity", "resource", "collective",
          "application")


@dataclass
class LayeredArchitecture:
    """The Figure 5 component registry."""

    components: Dict[str, List[Tuple[str, object]]] = field(
        default_factory=lambda: {layer: [] for layer in LAYERS})
    dependencies: List[Tuple[str, str]] = field(default_factory=list)

    def register(self, layer: str, name: str, component: object) -> None:
        """Place a component at a layer."""
        if layer not in self.components:
            raise ValueError(f"unknown layer {layer!r} "
                             f"(have {list(self.components)})")
        self.components[layer].append((name, component))

    def depends(self, user: str, used: str) -> None:
        """Record that component ``user`` builds on ``used``."""
        self.dependencies.append((user, used))

    def layer_of(self, name: str) -> Optional[str]:
        """Which layer a named component sits at."""
        for layer, entries in self.components.items():
            if any(n == name for n, _ in entries):
                return layer
        return None

    def check_dependencies(self) -> List[str]:
        """Violations of "higher layers depend only on lower/equal ones".

        Returns human-readable violation strings (empty = clean).
        """
        rank = {layer: i for i, layer in enumerate(LAYERS)}
        problems = []
        for user, used in self.dependencies:
            lu, ld = self.layer_of(user), self.layer_of(used)
            if lu is None or ld is None:
                problems.append(f"unregistered component in {user}->{used}")
            elif rank[ld] > rank[lu]:
                problems.append(
                    f"{user} ({lu}) depends on {used} ({ld}): "
                    f"upward dependency")
        return problems

    def names(self, layer: str) -> List[str]:
        """Component names at one layer."""
        return [n for n, _ in self.components[layer]]


class EarthSystemGrid:
    """One object wiring the entire ESG-I prototype.

    Wraps an :class:`~repro.scenarios.esg.EsgTestbed` and exposes the
    user-level workflow of §7's demonstration: select by attributes,
    fetch via the request manager, analyze and visualize.
    """

    def __init__(self, testbed: EsgTestbed):
        self.testbed = testbed
        self._layers = self._build_layers()

    # -- construction -------------------------------------------------------
    @classmethod
    def demo_testbed(cls, seed: int = 0, years: int = 1,
                     materialize: bool = True,
                     **kwargs) -> "EarthSystemGrid":
        """The standard demo: full multi-site testbed, real data bytes."""
        return cls(EsgTestbed(seed=seed, years=years,
                              materialize=materialize, **kwargs))

    def _build_layers(self) -> LayeredArchitecture:
        tb = self.testbed
        arch = LayeredArchitecture()
        arch.register("fabric", "storage", list(tb.sites.values()))
        arch.register("fabric", "networks", tb.network)
        arch.register("fabric", "metadata-catalog", tb.metadata_catalog)
        arch.register("fabric", "replica-catalog-store",
                      list(tb.catalog_stores.values()))
        arch.register("connectivity", "transport", tb.transport)
        arch.register("connectivity", "dns", tb.dns)
        arch.register("connectivity", "gsi", tb.gsi)
        arch.register("resource", "gridftp", tb.gridftp)
        arch.register("resource", "mds", tb.mds)
        arch.register("resource", "hrm",
                      tb.sites["lbnl-pdsf"].hrm)
        arch.register("collective", "replica-management",
                      tb.replica_manager)
        arch.register("collective", "replica-selection",
                      tb.request_manager.policy)
        arch.register("collective", "request-manager",
                      tb.request_manager)
        arch.register("collective", "nws", tb.nws)
        arch.register("application", "cdat", tb.cdat)
        for user, used in [("gridftp", "transport"), ("gridftp", "gsi"),
                           ("mds", "transport"),
                           ("replica-management", "gridftp"),
                           ("replica-selection", "nws"),
                           ("request-manager", "gridftp"),
                           ("request-manager", "mds"),
                           ("request-manager", "hrm"),
                           ("cdat", "request-manager"),
                           ("cdat", "metadata-catalog")]:
            arch.depends(user, used)
        return arch

    @property
    def layers(self) -> LayeredArchitecture:
        """The Figure 5 registry for this instance."""
        return self._layers

    # -- user workflow ------------------------------------------------------------
    def browse(self) -> List[dict]:
        """The Figure 2 selection listing."""
        return self.testbed.cdat.browse()

    def fetch_and_analyze(self, dataset: str, variable: str,
                          years: Optional[Tuple[int, int]] = None,
                          months: Optional[Tuple[int, int]] = None,
                          warm_nws: float = 90.0):
        """Blocking convenience: run the whole §7 demo flow.

        Returns (AnalysisResult, rendered_visualization_str).
        """
        tb = self.testbed
        if warm_nws > 0:
            tb.warm_nws(warm_nws)

        def flow():
            result = yield from tb.cdat.fetch(dataset, variable,
                                              years=years, months=months)
            return result

        result = tb.run_process(flow())
        var = result.dataset[variable]
        field = time_mean(result.dataset, variable)
        rendering = render_field(
            field,
            title=(f"{dataset} :: {variable} "
                   f"({var.attrs.get('long_name', '')}), time mean"),
            units=var.attrs.get("units", ""))
        return result, rendering

    def zonal_profile(self, result, variable: str) -> str:
        """Zonal-mean rendering of a fetched result."""
        profile = zonal_mean(result.dataset, variable)
        return render_profile(profile, result.dataset.coords["lat"],
                              title=f"zonal mean {variable}")

    def __repr__(self) -> str:
        return f"EarthSystemGrid({self.testbed!r})"
