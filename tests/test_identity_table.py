"""The identity tables against the explicit formulas, and the mutations their gate catches.

The reference functions below write each member of both identities out
term by term as explicit sums, reading the probe's prefixes and η
restrictions directly, independently of the :class:`identity.Term`
tables.  The tables must give the same members to rounding (a row
multiplies by its coefficient where the sums divide), and the origin
branch, which keeps explicit sums, the same bits.  The mutation catalog
then drops or alters table rows, or scales every η row (η times 1.01, 0
or -1), and checks that the two-radius gate (raw residual at most the
default tolerance 1e-3) fails on each, while the unaltered table passes;
it also disables the nudge of a base point off the samples, which turns
the residual at a probe on an interior sample into NaN.
On the half-space the η rows read the curve restriction of the plane's
wetted measure.
"""

import numpy as np
import pytest

from capmono import ball as bl
from capmono import halfspace as hs
from capmono import identity
from capmono.cli import _passes
from capmono.identity import MEMBERS

GATE = 1e-3
PAIR = (0.4, 1.5)
GRID = np.linspace(0.2, 2.5, 17)
HALFSPACE_PROBES = ((0.3, -0.2, 0.5), (0.4, -0.2, 0.0), (-0.1, 0.6, 1.2))
BALL_PROBES = ((0.2, 0.1, 0.4), (-0.1, 0.3, -0.2), (0.0, 0.6, 0.8))


def _halfspace(stock):
    return stock.cap(2 * np.pi / 3, res=64)


def _ball(stock):
    return stock.capball(2 * np.pi / 3, np.pi / 3, nu=48, nv=128)


def _reads(t, r):
    """Windowed reads of the direct and companion prefixes at r, in the shared window."""
    w = t.halfwidth(r)
    rh, wh = r / t.divisor, w / t.divisor
    return (
        lambda key: t.mu.windowed(key, r, w),
        lambda key: t.mu.windowed_over_r2(key, r, w),
        lambda key: t.mu_hat.windowed(key, rh, wh),
        lambda key: t.mu_hat.windowed_over_r2(key, rh, wh),
        w,
        (rh, wh),
    )


def _reference_halfspace(t, r):
    q, q2, qh, q2h, w, _ = _reads(t, r)
    ct = np.cos(t.theta)
    eta_ratio = t.eta.windowed_over_r2("mass", r, w)
    dfc = -ct / np.pi * t.eta.windowed("deficit", r, w)
    return {
        "g": (q2("mass") - ct * eta_ratio) / np.pi + q("h2") / (16 * np.pi) + q2("hxc") / (2 * np.pi),
        "g_hat": (q2h("mass") - ct * eta_ratio) / np.pi + qh("h2") / (16 * np.pi) + q2h("hxc") / (2 * np.pi),
        "square": q("sq") / np.pi,
        "square_hat": qh("sq") / np.pi,
        "deficit": dfc,
        "deficit_hat": dfc,
        "remainder": (q2("hxc") + q2h("hxc")) / (2 * np.pi),
    }


def _reference_free_pair(t, r):
    q, q2, qh, q2h, _, _ = _reads(t, r)
    g = q2("mass") / np.pi + q("h2") / (16 * np.pi) + q2("hxc") / (2 * np.pi)
    g_at_xi = q2h("mass") / np.pi + qh("h2") / (16 * np.pi) + q2h("hxc") / (2 * np.pi)
    position, curvature = q2h("pos") / np.pi, q2h("hpos") / (2 * np.pi)
    g_hat = g_at_xi - position - curvature + qh("hx") / (2 * np.pi) + qh("mass") / np.pi
    return g, g_hat


def _reference_ball(t, r):
    q, q2, qh, q2h, w, hat = _reads(t, r)
    ct = np.cos(t.theta)
    g, g_hat = _reference_free_pair(t, r)
    position, curvature = q2h("pos") / np.pi, q2h("hpos") / (2 * np.pi)
    wetted_hat = (
        ct * t.eta_hat.windowed_over_r2("dist2", *hat) / np.pi - ct * t.eta_hat.windowed("mass", *hat) / np.pi
    )
    return {
        "g": g - ct * t.eta.windowed_over_r2("mass", r, w) / np.pi,
        "g_hat": g_hat - ct * t.eta_hat.windowed_over_r2("mass", *hat) / np.pi + wetted_hat,
        "square": q("sq") / np.pi,
        "square_hat": qh("sq") / np.pi,
        "deficit": -ct / np.pi * t.eta.windowed("proj", r, w),
        "deficit_hat": -ct / np.pi * t.eta_hat.windowed("proj", *hat),
        "remainder": (
            q2("hxc") / (2 * np.pi)
            + q2h("hxc") / (2 * np.pi)
            - position
            - curvature
            + wetted_hat
            + qh("hx") / (2 * np.pi)
            + qh("mass") / np.pi
        ),
    }


def _reference_origin(t, r):
    a, b = t.window(r)
    mu = t.mu
    g = (
        mu.bounds_average("mass", a, b, over_r2=True) / np.pi
        + mu.bounds_average("h2", a, b) / (16 * np.pi)
        + mu.bounds_average("hxc", a, b, over_r2=True) / (2 * np.pi)
    )
    coeff = -np.sin(t.surface.theta) * t.surface.boundary_length() / (2 * np.pi)
    integral = (np.minimum(b, 1.0) - np.minimum(a, 1.0)) + 1.0 / np.maximum(a, 1.0) - 1.0 / np.maximum(b, 1.0)
    zeros = np.zeros(len(r))
    return {
        "g": g,
        "g_hat": coeff * (integral / np.maximum(b - a, 1e-300)),
        "square": mu.bounds_average("sq", a, b) / np.pi,
        "square_hat": zeros,
        "deficit": zeros,
        "deficit_hat": zeros,
        "remainder": mu.bounds_average("hxc", a, b, over_r2=True) / (2 * np.pi),
    }


def _assert_close(got, expect, name):
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(got - expect)) <= 1e-12 * scale, name


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_table_members_match_the_explicit_formulas(stock, ambient):
    if ambient == "halfspace":
        mono, (surface, region), probes, reference = hs, _halfspace(stock), HALFSPACE_PROBES, _reference_halfspace
    else:
        mono, (surface, region), probes, reference = bl, _ball(stock), BALL_PROBES, _reference_ball
    for probe in probes:
        terms = mono.probe_terms(surface, region, np.array(probe))
        got, expect = terms.members(GRID), reference(terms, GRID)
        assert set(got) == set(expect) == {*MEMBERS, "remainder"}
        for name in expect:
            _assert_close(got[name], expect[name], (probe, name))
        if ambient == "ball":
            for r in (0.4, 1.5):
                free = bl.free_boundary_radial_pair(surface, np.array(probe), r)
                for value, expect in zip(free, _reference_free_pair(terms, np.array([r]))):
                    assert abs(value - expect[0]) <= 1e-12 * abs(expect[0]), (probe, r)
    # a probe on the plane has no half-space deficit: its rows read exact zeros
    if ambient == "halfspace":
        members = hs.probe_terms(surface, region, np.array(HALFSPACE_PROBES[1])).members(GRID)
        assert not np.any(members["deficit"]) and not np.any(members["deficit_hat"])


def test_origin_members_match_the_explicit_formulas_bit_for_bit(stock):
    surface, region = _ball(stock)
    terms = bl.probe_terms(surface, region, np.zeros(3))
    got, expect = terms.members(GRID), _reference_origin(terms, GRID)
    assert set(got) == set(expect)
    for name in expect:
        assert got[name].tobytes() == expect[name].tobytes(), name


def _drop(index):
    return lambda table, theta: table[:index] + table[index + 1 :]


def _without_remainder(table, theta):
    return tuple(row for row in table if not row.remainder)


def _shifted_contact_angle(table, theta):
    # cos(theta) -> cos(theta + 0.01) on every eta row
    factor = np.cos(theta + 0.01) / np.cos(theta)
    return tuple(row._replace(coeff=row.coeff * factor) if row.source.startswith("eta") else row for row in table)


def _scaled_eta(factor):
    # every eta row times factor: the wetted measure scaled, dropped or negated
    return lambda table, theta: tuple(
        row._replace(coeff=row.coeff * factor) if row.source.startswith("eta") else row for row in table
    )


def _catalog(table):
    entries = {"unaltered": lambda t, theta: t}
    for k, row in enumerate(table):
        entries[f"drop-{k}-{row.member}-{row.source}-{row.key}{'-r2' if row.over_r2 else ''}"] = _drop(k)
    entries["drop-remainder"] = _without_remainder
    entries["shift-contact-angle"] = _shifted_contact_angle
    entries["eta-times-1.01"] = _scaled_eta(1.01)
    entries["eta-times-0"] = _scaled_eta(0.0)
    entries["eta-negated"] = _scaled_eta(-1.0)
    return entries


_MUTANTS = {"halfspace": _catalog(hs._TABLE), "ball": _catalog(bl._TABLE)}


@pytest.mark.parametrize(
    "ambient, mutant", [(ambient, name) for ambient, entries in _MUTANTS.items() for name in entries]
)
def test_two_radius_gate_catches_each_table_mutation(stock, ambient, mutant):
    # off the plane and off the sphere, so that every row (the half-space
    # deficit rows too) carries weight over the pair
    if ambient == "halfspace":
        mono, (surface, region), probe = hs, _halfspace(stock), np.array([0.3, -0.2, 0.5])
    else:
        mono, (surface, region), probe = bl, _ball(stock), np.array([0.2, 0.1, 0.4])
    terms = mono.probe_terms(surface, region, probe)
    terms.TABLE = _MUTANTS[ambient][mutant](terms.TABLE, surface.theta)
    residual = abs(mono.monotonicity_identity_detail(terms, *PAIR)["residual"])
    if mutant == "unaltered":
        assert residual <= GATE
    else:
        assert residual > GATE


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_two_radius_gate_catches_a_disabled_probe_nudge(stock, ambient, monkeypatch):
    # the interior sample nearest the catalog's probe: the base point sits
    # on a sample, where the μ integrands read 0/0 unless it is nudged off
    if ambient == "halfspace":
        mono, (surface, region), near = hs, _halfspace(stock), (0.3, -0.2, 0.5)
    else:
        mono, (surface, region), near = bl, _ball(stock), (0.2, 0.1, 0.4)
    probe = surface.points[np.argmin(np.linalg.norm(surface.points - near, axis=1))]
    nudged = mono.monotonicity_identity_detail(mono.probe_terms(surface, region, probe), *PAIR)["residual"]
    assert _passes(abs(nudged), GATE)
    monkeypatch.setattr(identity, "nudge_off_samples", lambda surface, a, d2: a)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = mono.monotonicity_identity_detail(mono.probe_terms(surface, region, probe), *PAIR)["residual"]
    assert np.isnan(raw) and not _passes(abs(raw), GATE)
