"""Built-in metric corpus and its golden classification records.

Each bundled metric file carries the branch, Petrov type, and residual
verdicts it must reproduce at every named point; ``corpus run`` (and the
regression tests) re-derive everything from scratch and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .geometry import MetricField
from .metricfile import parse_metric_text

_HOLDS = {
    "semi": "holds",
    "conformal": "holds",
    "ricci": "holds",
    "second_order": "holds",
    "nabla_riemann": "holds",
}


@dataclass(frozen=True)
class GoldenRecord:
    """Expected analysis outcome, uniform across the file's points."""

    branch: str
    petrov: str
    verdicts: dict


GOLDEN = {
    "bertotti_robinson": GoldenRecord("O", "O", dict(_HOLDS)),
    "minkowski": GoldenRecord("O", "O", dict(_HOLDS)),
    "nariai": GoldenRecord("D-generic-decomposable", "D", dict(_HOLDS)),
    "ppwave_linear": GoldenRecord(
        "N-second-order-candidate", "N",
        dict(_HOLDS, nabla_riemann="fails")),
    "ppwave_quadratic_u": GoldenRecord(
        "N-second-order-candidate", "N",
        dict(_HOLDS, second_order="fails", nabla_riemann="fails")),
    "product2x2": GoldenRecord(
        "D-generic-decomposable", "D",
        dict(_HOLDS, second_order="fails", nabla_riemann="fails")),
    "schwarzschild": GoldenRecord(
        "not-semi-symmetric", "D",
        dict(_HOLDS, semi="fails", conformal="fails",
             second_order="fails", nabla_riemann="fails")),
}

CORPUS_NAMES = tuple(sorted(GOLDEN))


def load_corpus_metric(name: str) -> MetricField:
    if name not in GOLDEN:
        raise KeyError(f"unknown corpus metric {name!r}; available: "
                       + ", ".join(CORPUS_NAMES))
    text = (resources.files("curvlab") / "corpus_data"
            / f"{name}.ini").read_text(encoding="utf-8")
    return parse_metric_text(text, name)
