"""Stable text records for verdicts, witnesses, and certificates.

Component order and ascending indices everywhere, so two runs over the same
inputs produce byte-identical output.
"""

from __future__ import annotations

from .compactify import CompactRefused, CompactVerdict
from .connectify import (
    ConnectednessCertificate,
    DensityCertificate,
    EscapeFilter,
    Extension,
    FidelityCertificate,
    IsTrivial,
    NotClopenEvidence,
    Refused,
    TypeI,
    TypeII,
    Verdict,
    verify_connectedness,
)
from .errors import InvalidExtension
from .intervals import fmt_value, is_finite
from .space import Space, is_compact, local_connectedness_certificate, verify_local_connectedness


def _flag(b: bool) -> str:
    return "true" if b else "false"


def fmt_tails(u: TypeII) -> str:
    return ",".join(f"C#{i}:{t}" for i, t in enumerate(u.tails))


def fmt_open(u) -> str:
    """One-line record of an extension open set."""
    if isinstance(u, TypeII):
        return f"II trace={u.trace} tails={fmt_tails(u)}"
    assert isinstance(u, TypeI)
    return f"I trace={u.trace}"


def fmt_witness_pair(u, v) -> list[str]:
    return [f"U = {fmt_open(u)}", f"V = {fmt_open(v)}"]


def fmt_filter(f: EscapeFilter) -> str:
    if is_finite(f.end):
        way = f"{'open_right' if f.side > 0 else 'open_left'}({fmt_value(f.end)})"
    else:
        way = "pos_inf" if f.side > 0 else "neg_inf"
    return f"filter {f.component} dir={way} anchor={fmt_value(f.anchor)}"


def fmt_verdict(v: Verdict) -> list[str]:
    if isinstance(v, Refused):
        return [f"Refused component={v.witness.piece}"]
    ext = v.extension
    lines = [f"connectifiable components={len(ext.filters)}"]
    lines.extend(fmt_filter(f) for f in ext.filters)
    return lines


def fmt_compact_verdict(space: Space, v: CompactVerdict) -> list[str]:
    if isinstance(v, CompactRefused):
        return [f"Refused space={space.ambient} reason=space-already-compact"]
    return [f"compact_extension base={space.ambient}"]


def fmt_check(space: Space) -> list[str]:
    cert = local_connectedness_certificate(space)
    if not verify_local_connectedness(space, cert):
        raise InvalidExtension("local connectedness certificate failed its own verification")
    compact = [is_compact(c) for c, _ in cert.entries]
    lines = [f"space={space.ambient}", f"space_compact={_flag(all(compact))}"]
    for (c, _), ok in zip(cert.entries, compact):
        lines.append(f"{c} compact={_flag(ok)}")
    lines.append("locally_connected=true")
    for k, (c, w) in enumerate(cert.entries, 1):
        lines.append(f"step {k} {c} window={w} trace_matches=true")
    return lines


def fmt_connectedness(ext: Extension, cert: ConnectednessCertificate) -> list[str]:
    """The certificate's steps, printed only once verify_connectedness accepts
    them; the flags are constant text, kept for byte-stable output."""
    if not verify_connectedness(ext, cert):
        raise InvalidExtension("connectedness certificate failed its own verification")
    lines = [f"certificate connectedness components={len(cert.steps)}"]
    for k, step in enumerate(cert.steps, 1):
        lines.append(
            f"step {k} {step.component} tail={step.tail}"
            " nonempty=true subset=true closed_in_component=true single_interval=true"
        )
    lines.append("conclusion clopen-with-p=whole-extension")
    return lines


def fmt_density(cert: DensityCertificate) -> list[str]:
    lines = [f"certificate density samples={len(cert.neighborhoods)}"]
    for k, nb in enumerate(cert.neighborhoods, 1):
        lines.append(f"step {k} tails={fmt_tails(nb)} trace={nb.trace} nonempty={_flag(bool(nb.trace))}")
    return lines


def fmt_fidelity(cert: FidelityCertificate) -> list[str]:
    lines = [f"certificate fidelity samples={len(cert.extension_opens)}"]
    for k, u in enumerate(cert.extension_opens, 1):
        lines.append(f"step {k} down {fmt_open(u)}")
    for k, w in enumerate(cert.base_opens, 1):
        lines.append(f"step {len(cert.extension_opens) + k} up I trace={w}")
    return lines


def fmt_falsifier_outcome(outcome) -> str:
    if isinstance(outcome, IsTrivial):
        return f"trivial which={outcome.which}"
    assert isinstance(outcome, NotClopenEvidence)
    chk = outcome.check
    parts = [f"not-clopen side={outcome.side} reason={chk.reason}"]
    if chk.component is not None:
        parts.append(f"component=C#{chk.component}")
    if chk.boundary is not None:
        parts.append(f"boundary={fmt_value(chk.boundary)}")
    return " ".join(parts)
