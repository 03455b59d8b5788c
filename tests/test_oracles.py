"""Every oracle can fail: one planted fault per ``OracleMismatch`` raise.

Each test swaps one function the oracle reads for a faulty one with
``monkeypatch`` and checks that the oracle raises with the message that
names the fault.  An oracle that cannot fail shows nothing when it passes.
"""

import pytest

import prism.intlinalg as la
import prism.oracles as oracles
from prism import Torus, down_sets, key_name, thomason_derivative
from prism.errors import replace
from prism.oracles import OracleMismatch
from prism.priestley import _assemble


def test_isomax_oracle_fails_on_a_wrong_dimension(monkeypatch):
    real = oracles.isomax_dim
    monkeypatch.setattr(oracles, "isomax_dim", lambda phi, n: real(phi, n) + (phi == (0, 2)))
    with pytest.raises(OracleMismatch, match=r"^isomax mismatch at \(0, 2\), n=2$"):
        oracles.check_isomax()


def test_snf_oracle_fails_on_a_cap_below_the_index(monkeypatch):
    real = oracles._coset_count
    monkeypatch.setattr(oracles, "_coset_count", lambda coords, cap: real(coords, 0))
    with pytest.raises(OracleMismatch, match=r"^coset enumeration exceeded cap$"):
        oracles.check_snf_torsion()


def test_snf_oracle_fails_on_a_coset_count_off_by_one(monkeypatch):
    real = oracles._coset_count
    monkeypatch.setattr(oracles, "_coset_count", lambda coords, cap: real(coords, cap) + 1)
    with pytest.raises(OracleMismatch, match=r"^coset count 2 disagrees with index 1$"):
        oracles.check_snf_torsion()


def test_snf_oracle_fails_on_wrong_invariant_factors(monkeypatch):
    monkeypatch.setattr(la, "snf_invariant_factors", lambda m: (2,))
    with pytest.raises(OracleMismatch, match=r"^torsion verdicts disagree for DualLattice\("
                       r"rank=1, rows=\(\(1,\),\)\) in DualLattice\(rank=1, rows=\(\(1,\),\)\)$"):
        oracles.check_snf_torsion()


def test_cotoral_oracle_fails_on_a_dropped_pair(monkeypatch):
    real, dropped = oracles.cotoral_le, []

    def drop_first(group, a, b):
        if real(group, a, b) and not dropped:
            dropped.append((a, b))
            return False
        return real(group, a, b)

    monkeypatch.setattr(oracles, "cotoral_le", drop_first)
    with pytest.raises(OracleMismatch, match=r"^order pairs differ for Circle\(\) at 2$"):
        oracles.check_cotoral_order()
    assert len(dropped) == 1


def test_cotoral_oracle_fails_on_a_renamed_key(monkeypatch):
    renamed = []

    def rename_first(group, key):
        if renamed:
            return key_name(group, key)
        renamed.append(key)
        return key_name(group, key) + "'"

    monkeypatch.setattr(oracles, "key_name", rename_first)
    with pytest.raises(OracleMismatch, match=r"^key order differs for Torus\(rank=1\) at 2$"):
        oracles.check_cotoral_order()


def test_cotoral_oracle_fails_on_a_family_missing_a_member_point(monkeypatch):
    real = Torus._snapshot

    def snapshot(self, bound):
        keys, order_pairs, fams, parts = real(self, bound)
        f = fams[0]
        return keys, order_pairs, [replace(f, member_lt=f.member_lt - {min(f.member_lt)}),
                                   *fams[1:]], parts

    monkeypatch.setattr(Torus, "_snapshot", snapshot)
    with pytest.raises(OracleMismatch, match=r"^families differ for Torus\(rank=1\) at 2$"):
        oracles.check_cotoral_order()


def derived(derive):
    """A derivative that rewrites the true one's output with ``derive``,
    which takes and returns (points, covers, families)."""

    def derivative(space):
        d = thomason_derivative(space)
        return _assemble(type(d), *derive(d.concrete, d.covers, d.families))

    return derivative


def raise_a_hint(pts, covers, fams):
    """The first hinted family's hint raised by one: it lives a step longer."""
    f = next((f for f in fams if f.member_height_hint), None)
    return pts, covers, [replace(f, member_height_hint=f.member_height_hint + 1)
                         if g is f else g for g in fams]


@pytest.mark.parametrize("fault, message", [
    (lambda space: space, r"^derivative step 1 keeps \["),
    (derived(lambda pts, covers, fams: (pts, covers, fams[1:])),
     r"^family survivors differ at step 1$"),
    (derived(lambda pts, covers, fams: (pts, covers - {min(covers, default=None)}, fams)),
     r"^derivative step 1 has other covers than its rebuild$"),
    (derived(raise_a_hint), r"^family survivors differ at step 3$"),
    # a built space keeps its families in id order
    (derived(lambda pts, covers, fams: (pts, covers, fams[::-1])),
     r"^derivative step 1 differs from its rebuild$"),
], ids=["returns-its-input", "drops-a-family", "wrong-covers", "changes-a-hint",
        "families-out-of-order"])
def test_derivative_oracle_fails_on_a_faulty_derivative(monkeypatch, fault, message):
    monkeypatch.setattr(oracles, "thomason_derivative", fault)
    with pytest.raises(OracleMismatch, match=message):
        oracles.check_derivative_vs_heights()


def test_down_set_oracle_fails_on_a_lost_set(monkeypatch):
    monkeypatch.setattr(oracles, "down_sets", lambda poset: list(down_sets(poset))[1:])
    with pytest.raises(OracleMismatch,
                       match=r"^down-set families differ on \['0', '1', '2', '3', '4', '5'\]$"):
        oracles.check_down_sets()
