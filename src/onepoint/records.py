"""Stable text records for verdicts, witnesses, and certificates.

Component order and ascending indices everywhere, so two runs over the same
inputs produce byte-identical output.
"""

from __future__ import annotations

from .compactify import CompactRefused, CompactVerdict, TypeInf
from .connectify import (
    ConnectednessCertificate,
    DensityCertificate,
    EscapeFilter,
    Extension,
    FidelityCertificate,
    IsTrivial,
    NotClopenEvidence,
    Refused,
    TypeII,
    Verdict,
)
from .intervals import fmt_value, is_closed_in, is_finite
from .space import LocalConnectednessCertificate, Space, components


def _flag(b: bool) -> str:
    return "true" if b else "false"


def fmt_tails(u: TypeII) -> str:
    return ",".join(f"C#{i}:{t}" for i, t in enumerate(u.tails))


def fmt_open(u) -> str:
    """One-line record of an extension or compactification open set."""
    if isinstance(u, TypeII):
        return f"II trace={u.trace} tails={fmt_tails(u)}"
    if isinstance(u, TypeInf):
        return f"Inf trace={u.trace}"
    return f"I trace={u.trace}"


def fmt_witness_pair(u, v) -> list[str]:
    return [f"U = {fmt_open(u)}", f"V = {fmt_open(v)}"]


def fmt_filter(f: EscapeFilter) -> str:
    if is_finite(f.end):
        way = f"{'open_right' if f.side > 0 else 'open_left'}({fmt_value(f.end)})"
    else:
        way = "pos_inf" if f.side > 0 else "neg_inf"
    return f"filter C#{f.component.index}={f.component.piece} dir={way} anchor={fmt_value(f.anchor)}"


def fmt_verdict(v: Verdict) -> list[str]:
    if isinstance(v, Refused):
        return [f"Refused component={v.witness.piece}"]
    ext = v.extension
    lines = [f"connectifiable components={len(ext.filters)}"]
    lines.extend(fmt_filter(f) for f in ext.filters)
    return lines


def fmt_compact_verdict(space: Space, v: CompactVerdict) -> list[str]:
    if isinstance(v, CompactRefused):
        return [f"Refused space={space.ambient} reason={v.reason}"]
    return [f"compact_extension base={space.ambient}"]


def fmt_check(space: Space) -> list[str]:
    from .compactify import is_space_compact
    from .space import is_compact, local_connectedness_certificate, verify_local_connectedness

    lines = [f"space={space.ambient}", f"space_compact={_flag(is_space_compact(space))}"]
    for c in components(space):
        lines.append(f"C#{c.index}={c.piece} compact={_flag(is_compact(c))}")
    cert = local_connectedness_certificate(space)
    lines.append(f"locally_connected={_flag(verify_local_connectedness(space, cert))}")
    lines.extend(fmt_local_connectedness(space, cert))
    return lines


def fmt_local_connectedness(space: Space, cert: LocalConnectednessCertificate) -> list[str]:
    from .intervals import intersect, only

    lines = []
    for k, (comp, w) in enumerate(cert.entries, 1):
        ok = intersect(only(w), space.ambient) == comp.as_set()
        lines.append(f"step {k} C#{comp.index}={comp.piece} window={w} trace_matches={_flag(ok)}")
    return lines


def fmt_connectedness(ext: Extension, cert: ConnectednessCertificate) -> list[str]:
    lines = [f"certificate connectedness components={len(cert.steps)}"]
    for k, step in enumerate(cert.steps, 1):
        c = step.component.as_set()
        lines.append(
            f"step {k} C#{step.component.index}={step.component.piece} tail={step.tail}"
            f" nonempty={_flag(bool(step.tail))}"
            f" subset={_flag(step.tail.issubset(c))}"
            f" closed_in_component={_flag(is_closed_in(step.tail, c))}"
            f" single_interval={_flag(len(c.pieces) == 1)}"
        )
    lines.append("conclusion clopen-with-p=whole-extension")
    return lines


def fmt_density(cert: DensityCertificate) -> list[str]:
    lines = [f"certificate density samples={cert.samples}"]
    for k, nb in enumerate(cert.neighborhoods, 1):
        lines.append(f"step {k} tails={fmt_tails(nb)} trace={nb.trace} nonempty={_flag(bool(nb.trace))}")
    return lines


def fmt_fidelity(cert: FidelityCertificate) -> list[str]:
    lines = [f"certificate fidelity samples={cert.samples}"]
    for k, u in enumerate(cert.extension_opens, 1):
        lines.append(f"step {k} down {fmt_open(u)}")
    for k, w in enumerate(cert.base_opens, 1):
        lines.append(f"step {len(cert.extension_opens) + k} up I trace={w}")
    return lines


def fmt_falsifier_outcome(outcome) -> str:
    if isinstance(outcome, IsTrivial):
        return f"trivial which={outcome.which}"
    assert isinstance(outcome, NotClopenEvidence)
    parts = [f"not-clopen side={outcome.side} reason={outcome.reason}"]
    if outcome.component is not None:
        parts.append(f"component=C#{outcome.component}")
    if outcome.boundary is not None:
        parts.append(f"boundary={fmt_value(outcome.boundary)}")
    return " ".join(parts)
