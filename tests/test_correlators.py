"""Correlation data model tests: moments, CHSH, no-signaling."""

import json
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import float_bits
from oracles import VERTEX_VALUES, chsh_raw, probability_fault_oracle, table_fault_oracle, tripartite_fault_oracle

from bellri import correlators, lhv

from bellri.correlators import (
    CorrelatorTable,
    ProbabilityTable,
    TripartiteCorrelatorTable,
    check_no_signaling,
    chsh,
    chsh_max,
    from_probability_table,
    pr_box_table,
)
from bellri.errors import DegenerateDataError, MalformedInputError
from bellri.lhv import LhvEnsemble, correlators_of, statistics_of


def random_probability_table(rng, na=None, nb=None):
    na = na or int(rng.integers(2, 5))
    nb = nb or int(rng.integers(2, 5))
    oa = np.sort(rng.normal(size=na) * rng.uniform(0.5, 3.0))
    ob = np.sort(rng.normal(size=nb) * rng.uniform(0.5, 3.0))
    p = rng.dirichlet(np.ones(na * nb), size=4).reshape(2, 2, na, nb)
    return ProbabilityTable(outcomes_a=oa, outcomes_b=ob, p=p)


class TestProbabilityTable:
    def test_normalization_enforced(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = 0.3
        with pytest.raises(MalformedInputError):
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)

    def test_negative_probability_rejected(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0] = [[0.5, -0.1], [0.3, 0.3]]
        with pytest.raises(MalformedInputError):
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)


# entries that break a rule, sit at its edge, or overflow a product
EDGE_ENTRIES = (np.nan, np.inf, -np.inf, -0.5, -1e-300, -0.0, 0.0, 1.0 + 1e-9, 1.0 + 3e-9, -1.0 - 3e-9,
                1e155, 1e308, -1e308)


def _mutated(rng, fields: dict, n: int) -> dict:
    """``fields`` with ``n`` random entries set to an edge entry or a vector's length changed."""
    fields = dict(fields)
    for _ in range(n):
        name = list(fields)[rng.integers(len(fields))]
        a = np.array(np.ones(2) if fields[name] is None else fields[name], dtype=np.float64)
        if a.size == 0 or rng.random() < 0.15:
            a = np.zeros(a.shape[:-1] + (max(a.shape[-1] + rng.choice([-1, 1]), 0),))
        else:
            a.flat[rng.integers(a.size)] = EDGE_ENTRIES[rng.integers(len(EDGE_ENTRIES))]
        fields[name] = a
    return fields


def _message(build) -> str | None:
    try:
        build()
    except MalformedInputError as exc:
        return str(exc)
    return None


class TestOnePassValidation:
    """One pass over a table's entries rejects what the field-by-field rules reject, with their message."""

    def test_bipartite_table(self):
        rng = np.random.default_rng(1101)
        for n in range(3000):
            m = rng.uniform(-1, 1, 4)
            pe = rng.uniform(-1, 1, (2, 2))
            fields = {"means_a": m[:2], "means_b": m[2:], "var_a": 1 - m[:2] ** 2, "var_b": 1 - m[2:] ** 2,
                      "cov": pe * 0.5, "pearson": pe}
            fields = _mutated(rng, fields, int(rng.integers(0, 3)))
            if n % 3 == 0 and np.shape(fields["pearson"]) == (2, 2):
                # undefined entries are NaN and masked, as from_probability_table gives them
                mask = rng.random((2, 2)) < 0.8
                fields["pearson"] = np.where(mask, fields["pearson"], np.nan)
                fields["pearson_defined"] = mask
            assert _message(lambda: CorrelatorTable(**fields)) == table_fault_oracle(**fields), fields

    def test_tripartite_table(self):
        rng = np.random.default_rng(1102)
        for _ in range(2000):
            fields = {name: rng.uniform(-1, 1, (2, 2)) for name in ("pearson_ab", "pearson_ac", "pearson_bc")}
            fields.update({name: rng.uniform(0, 2, 2) if rng.random() < 0.5 else None
                           for name in ("var_a", "var_b", "var_c")})
            fields = _mutated(rng, fields, int(rng.integers(0, 3)))
            expected = tripartite_fault_oracle(
                [fields[n] for n in ("pearson_ab", "pearson_ac", "pearson_bc")],
                [fields[n] for n in ("var_a", "var_b", "var_c")],
            )
            assert _message(lambda: TripartiteCorrelatorTable(**fields)) == expected, fields

    def test_probability_table(self):
        rng = np.random.default_rng(1103)
        for _ in range(2000):
            na, nb = (int(x) for x in rng.integers(1, 4, 2))
            fields = {"outcomes_a": rng.uniform(-2, 2, na), "outcomes_b": rng.uniform(-2, 2, nb),
                      "p": rng.dirichlet(np.ones(na * nb), size=(2, 2)).reshape(2, 2, na, nb)}
            fields = _mutated(rng, fields, int(rng.integers(0, 3)))
            expected = probability_fault_oracle(**fields)
            assert _message(lambda: ProbabilityTable(**fields)) == expected, fields


class TestFromPearson:
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,), (2, 2, 1), ()])
    def test_non_2x2_block_rejected(self, shape):
        with pytest.raises(MalformedInputError, match="2x2"):
            CorrelatorTable.from_pearson(np.zeros(shape))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CorrelatorTable.from_pearson([[0.5, 0.1], [0.2]]), "pearson must be a 2x2 array of numbers"),
            (lambda: CorrelatorTable.from_pearson([[0.5, "x"], [0.2, 0.3]]), "pearson must be a 2x2 array of numbers"),
            (lambda: CorrelatorTable.from_pearson(np.zeros((3, 2))), "pearson must be 2x2, got shape (3, 2)"),
            (lambda: CorrelatorTable.from_pearson([[0.5, 0.1], [0.2, 0.3]], means={"b": [0.0, None]}),
             "means_b must be a finite length-2 vector"),
            (lambda: TripartiteCorrelatorTable([[0.1, 0.2], [0.3]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
             "pearson_ab must be a finite 2x2 block"),
            (lambda: TripartiteCorrelatorTable(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), var_c=["x", 1]),
             "var_c must be a nonnegative length-2 vector"),
            (lambda: ProbabilityTable([-1, [1]], [-1, 1], np.full((2, 2, 2, 2), 0.25)),
             "outcomes_a must be a rectangular array of numbers"),
            (lambda: ProbabilityTable([-1, 1], [-1, 1], [[[[0.5, "x"]]]]), "p must be a rectangular array of numbers"),
            (lambda: ProbabilityTable([-1, 1], [-1, 1], np.full((2, 2, 4), 0.25)),
             "p must have shape (2, 2, 2, 2), got (2, 2, 4)"),
            (lambda: ProbabilityTable([-1, 1], [-1, 0, 1], [[[[1.0]]]]), "p must have shape (2, 2, 2, 3), got (1, 1, 1, 1)"),
            (lambda: ProbabilityTable([-1, 1], [-1, 1], [[], []]), "p must have shape (2, 2, 2, 2), got (2, 0)"),
            (lambda: ProbabilityTable(1.0, [-1, 1], np.full((2, 2, 1, 2), 0.5)), "outcome lists must be non-empty 1-d arrays"),
            (lambda: ProbabilityTable([], [-1, 1], np.full((2, 2, 0, 2), 0.5)), "outcome lists must be non-empty 1-d arrays"),
        ],
    )
    def test_ragged_or_non_numeric_lists_name_the_field(self, build, message):
        with pytest.raises(MalformedInputError) as info:
            build()
        assert str(info.value) == message


# every field of each table class, in constructor order
TABLE_FIELDS = ("means_a", "means_b", "var_a", "var_b", "cov", "pearson", "pearson_defined", "signaling_in_variance")
ARRAY_FIELDS = {CorrelatorTable: TABLE_FIELDS[:-1],
                TripartiteCorrelatorTable: ("pearson_ab", "pearson_ac", "pearson_bc", "var_a", "var_b", "var_c"),
                ProbabilityTable: ("outcomes_a", "outcomes_b", "p"), LhvEnsemble: ("weights",)}


class TestArrayFields:
    def test_each_array_is_built_on_first_read_read_only_and_kept(self):
        tables = [CorrelatorTable.from_pearson([[0.5, np.nan], [0.2, 0.3]]),
                  TripartiteCorrelatorTable(np.eye(2) * 0.5, np.zeros((2, 2)), np.zeros((2, 2))),
                  ProbabilityTable([-1, 0, 1], [2], [[[[0.5], [0.25], [0.25]]] * 2] * 2), LhvEnsemble.point(3)]
        for t in tables:
            names = ARRAY_FIELDS[type(t)]
            assert not set(names) & set(vars(t))
            for name in names:
                a = getattr(t, name)
                assert getattr(t, name) is a and vars(t)[name] is a and not a.flags.writeable
        ct, tct, pt, ens = tables
        assert ct.pearson_defined.tolist() == [[True, False], [True, True]]
        assert tct.var_c.dtype == np.float64 and tct.var_c.tolist() == [1.0, 1.0]
        assert pt.outcomes_a.dtype == np.float64 and pt.outcomes_a.tolist() == [-1.0, 0.0, 1.0]
        assert pt.p.shape == (2, 2, 3, 1) and pt.p[1, 0, :, 0].tolist() == [0.5, 0.25, 0.25]
        assert ens.weights.shape == (16,) and ens.weights.tolist() == [0.0] * 3 + [1.0] + [0.0] * 12

    def test_records_are_immutable(self):
        for t in (CorrelatorTable.from_pearson([[0.5, 0.1], [0.2, 0.3]]), pr_box_table(), LhvEnsemble.uniform()):
            with pytest.raises(AttributeError):
                t.p = None
            with pytest.raises(AttributeError):
                del t._floats


class TestFromProbabilityTable:
    def test_pr_box_moments(self):
        ct = from_probability_table(pr_box_table())
        np.testing.assert_allclose(ct.means_a, 0.0, atol=1e-15)
        np.testing.assert_allclose(ct.means_b, 0.0, atol=1e-15)
        np.testing.assert_allclose(ct.var_a, 1.0, atol=1e-15)
        np.testing.assert_allclose(ct.pearson, [[1.0, 1.0], [1.0, -1.0]], atol=1e-15)
        assert not ct.signaling_in_variance

    def test_uniform_independent(self):
        p = np.full((2, 2, 2, 2), 0.25)
        ct = from_probability_table(
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)
        )
        np.testing.assert_allclose(ct.pearson, 0.0, atol=1e-15)
        np.testing.assert_allclose(ct.var_a, 1.0, atol=1e-15)
        np.testing.assert_allclose(ct.var_b, 1.0, atol=1e-15)

    def test_zero_variance_marks_undefined(self):
        # Alice's outcome is deterministic under setting 0
        p = np.zeros((2, 2, 2, 2))
        p[0, :, 0, 0] = 0.5
        p[0, :, 0, 1] = 0.5
        p[1, :] = 0.25
        ct = from_probability_table(
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)
        )
        assert not ct.pearson_defined[0, 0] and not ct.pearson_defined[0, 1]
        assert ct.pearson_defined[1, 0] and ct.pearson_defined[1, 1]
        with pytest.raises(DegenerateDataError) as info:
            chsh(ct)
        # plain Python indices, not NumPy scalar reprs
        assert str(info.value) == "Pearson entries undefined at (i, j) in [(0, 0), (0, 1)]"

    def test_signaling_in_variance_flagged(self):
        # Alice's variance depends on Bob's setting (a signaling table)
        p = np.zeros((2, 2, 2, 2))
        p[:, 0] = 0.25                          # uniform when Bob uses 0
        p[:, 1, 0, 0] = 0.45                    # skewed when Bob uses 1
        p[:, 1, 0, 1] = 0.45
        p[:, 1, 1, 0] = 0.05
        p[:, 1, 1, 1] = 0.05
        ct = from_probability_table(
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)
        )
        assert ct.signaling_in_variance

    def test_pearson_within_unit_interval(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            ct = from_probability_table(random_probability_table(rng))
            pe = ct.pearson[ct.pearson_defined]
            assert np.all(np.abs(pe) <= 1.0 + 1e-12)

    def test_near_degenerate_tables_never_raise(self):
        # two-point contexts with a tiny second mass, and ensembles near a vertex:
        # a variance near zero rounds, yet every derived Pearson entry is a correlation
        rng = np.random.default_rng(20)
        for _ in range(1500):
            na, nb = (int(n) for n in rng.integers(2, 5, size=2))
            p = np.zeros((2, 2, na, nb))
            for i, j in np.ndindex(2, 2):
                d = 10.0 ** rng.uniform(-12, -1)
                p[i, j, rng.integers(na), rng.integers(nb)] += 1.0 - d
                p[i, j, rng.integers(na), rng.integers(nb)] += d
            oa, ob = (np.sort(rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3) for n in (na, nb))
            w = rng.dirichlet(np.full(16, 0.3)) * 10.0 ** rng.uniform(-12, -2)
            w[rng.integers(16)] += 1.0 - w.sum()
            for ct in (from_probability_table(ProbabilityTable(oa, ob, p)), correlators_of(LhvEnsemble(w))):
                assert np.all(np.abs(ct.pearson[ct.pearson_defined]) <= 1.0)

    def test_pr_box_is_one_read_only_table(self):
        pt = pr_box_table()
        assert pr_box_table() is pt
        assert not any(a.flags.writeable for a in (pt.outcomes_a, pt.outcomes_b, pt.p))

    def test_affine_relabel_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pt = random_probability_table(rng)
            alpha, beta = rng.uniform(0.2, 3.0), rng.normal()
            relabeled = ProbabilityTable(
                outcomes_a=alpha * pt.outcomes_a + beta,
                outcomes_b=pt.outcomes_b,
                p=pt.p,
            )
            r0 = from_probability_table(pt)
            r1 = from_probability_table(relabeled)
            np.testing.assert_array_equal(r0.pearson_defined, r1.pearson_defined)
            mask = r0.pearson_defined
            np.testing.assert_allclose(
                r0.pearson[mask], r1.pearson[mask], atol=1e-10
            )


class TestChsh:
    def test_pr_box_reaches_four(self):
        assert chsh(from_probability_table(pr_box_table())) == pytest.approx(4.0, abs=1e-12)

    def test_zero_table(self):
        ct = CorrelatorTable.from_pearson(np.zeros((2, 2)))
        assert chsh(ct) == 0.0

    def test_tsirelson_point(self):
        pe = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        ct = CorrelatorTable.from_pearson(pe)
        assert chsh(ct) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_chsh_max_picks_best_variant(self):
        pe = np.array([[-1.0, -1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        assert chsh_max(pe) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_chsh_raw_uses_means(self):
        ct = CorrelatorTable.from_pearson(
            np.zeros((2, 2)), means={"a": [0.5, 0.5], "b": [0.5, -0.5]}
        )
        # raw E_ij = mean_a_i * mean_b_j when cov = 0
        assert chsh_raw(ct) == pytest.approx(0.25 + 0.25 + (-0.25) - (-0.25))


class TestNoSignaling:
    def test_pr_box_passes(self):
        report = check_no_signaling(pr_box_table())
        assert report["pass"]
        assert report["max_discrepancy_alice"] == 0.0

    def test_product_table_passes(self):
        rng = np.random.default_rng(1)
        qa = rng.dirichlet(np.ones(3), size=2)      # per Alice setting
        qb = rng.dirichlet(np.ones(2), size=2)      # per Bob setting
        p = np.einsum("ia,jb->ijab", qa, qb)
        pt = ProbabilityTable(outcomes_a=[0.0, 1.0, 2.0], outcomes_b=[-1.0, 1.0], p=p)
        assert check_no_signaling(pt)["pass"]

    def test_signaling_table_located(self):
        p = np.zeros((2, 2, 2, 2))
        p[:, 0] = 0.25
        p[:, 1, 0, :] = 0.4
        p[:, 1, 1, :] = 0.1
        pt = ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)
        report = check_no_signaling(pt)
        assert not report["pass"]
        assert report["max_discrepancy_alice"] == pytest.approx(0.3)
        assert "worst_alice" in report
        assert report["worst_alice"]["marginals"] == [0.5, 0.8] or report[
            "worst_alice"
        ]["marginals"] == [0.5, 0.2]


TABLE_BITS = Path(__file__).parent / "golden" / "table_bits.json"
CONCENTRATIONS = (0.05, 0.3, 1.0, 2.0)


def _alphabet(rng, n):
    return np.sort(rng.normal(size=n) * rng.uniform(0.5, 3.0))


def _local_table(rng, oa, ob, concentration):
    """A no-signalling table: a mixture of deterministic outcome assignments a(i), b(j)."""
    na, nb = len(oa), len(ob)
    w = rng.dirichlet(np.full(na * na * nb * nb, concentration)).reshape(na, na, nb, nb)
    p = np.zeros((2, 2, na, nb))
    for (a0, a1, b0, b1), x in np.ndenumerate(w):
        for i, a in enumerate((a0, a1)):
            for j, b in enumerate((b0, b1)):
                p[i, j, a, b] += x
    return ProbabilityTable(outcomes_a=oa, outcomes_b=ob, p=p)


def _table_fields(ct):
    return {name: float_bits(getattr(ct, name)) for name in TABLE_FIELDS}


def _probability_bits(pt):
    return {"from_probability_table": _table_fields(from_probability_table(pt)),
            "check_no_signaling": float_bits(check_no_signaling(pt)),
            "check_no_signaling tol=0": float_bits(check_no_signaling(pt, tol=0.0))}


def _ensemble_bits(weights):
    ens = LhvEnsemble(weights)
    stats = statistics_of(ens)
    rec = {name: float_bits(getattr(stats, name)) for name in ("raw_e", "r", "r_bar", "q")}
    rec["r_prime"] = float_bits(stats.r_prime)
    return {"correlators_of": _table_fields(correlators_of(ens)),
            "statistics_of": dict(table=_table_fields(stats.table), **rec)}


def table_bit_record() -> dict:
    """Every bit of the table path on a fixed matrix of probability tables and ensembles.

    Probability tables: 1 to 4 outcomes per party, arbitrary alphabets and
    +-1, Dirichlet concentrations 0.05 to 2, signalling (one draw per
    context) and no-signalling (a local mixture) tables, and tables whose
    largest marginal discrepancies tie. Ensembles: point masses, near point
    masses and Dirichlet draws. ``tests/golden/table_bits.json`` is this
    record, written with ``json.dumps(table_bit_record(), indent=1)``;
    regenerate it only for an intended change of the tables' arithmetic.
    """
    rng = np.random.default_rng(2020)
    rec = {}
    for na in range(1, 5):
        for nb in range(1, 5):
            c = CONCENTRATIONS[(na + nb) % 4]
            oa, ob = _alphabet(rng, na), _alphabet(rng, nb)
            p = rng.dirichlet(np.full(na * nb, c), size=4).reshape(2, 2, na, nb)
            rec[f"signalling {na}x{nb} c={c}"] = _probability_bits(ProbabilityTable(oa, ob, p))
            rec[f"local {na}x{nb} c={c}"] = _probability_bits(_local_table(rng, oa, ob, c))
    pm = np.array([-1.0, 1.0])
    for c in CONCENTRATIONS:
        p = rng.dirichlet(np.full(4, c), size=4).reshape(2, 2, 2, 2)
        rec[f"signalling +-1 c={c}"] = _probability_bits(ProbabilityTable(pm, pm, p))
        rec[f"local +-1 c={c}"] = _probability_bits(_local_table(rng, pm, pm, c))
    # Alice's and Bob's discrepancies tie at 0.5 across outcomes and settings, and
    # a 3-outcome Alice ties at 0.25 on (0, 1), (0, 2), (1, 0) and (1, 1): the first index wins
    rec["tie 2x2"] = _probability_bits(ProbabilityTable(pm, pm, [
        [[[0.5, 0.25], [0.25, 0.0]], [[0.25, 0.0], [0.5, 0.25]]],
        [[[0.0, 0.25], [0.25, 0.5]], [[0.25, 0.5], [0.0, 0.25]]]]))
    rec["tie 3x1"] = _probability_bits(ProbabilityTable([-1.0, 0.0, 2.0], [1.0], [
        [[[0.5], [0.25], [0.25]], [[0.5], [0.5], [0.0]]],
        [[[0.25], [0.5], [0.25]], [[0.5], [0.25], [0.25]]]]))
    rec["pr box"] = _probability_bits(pr_box_table())
    for k in (0, 6, 9, 15):
        rec[f"point {k}"] = _ensemble_bits(np.eye(16)[k])
    for k, d in ((3, 1e-3), (6, 1e-6), (12, 1e-8)):
        w = np.full(16, d / 15)
        w[k] = 1.0 - d
        rec[f"near point {k} d={d}"] = _ensemble_bits(w)
    rec["uniform"] = _ensemble_bits(np.full(16, 1 / 16))
    for c in CONCENTRATIONS:
        for n in range(3):
            rec[f"dirichlet c={c} #{n}"] = _ensemble_bits(rng.dirichlet(np.full(16, c)))
    return rec


def _no_forced_kernel() -> str | None:
    """Why this machine cannot run NumPy's BLAS on another CPU's kernel, or None if it can."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OPENBLAS_CORETYPE names x86-64 kernels; this machine is {platform.machine()}"
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "NumPy's BLAS is not a DYNAMIC_ARCH OpenBLAS build, which alone picks its kernel at load time"
    return None


class TestTableBitIdentity:
    def test_tables_match_golden_bits(self):
        # any change to the table path's arithmetic or to its stored arrays
        # shows here as a changed bit, not as a drift inside a tolerance
        assert table_bit_record() == json.loads(TABLE_BITS.read_text(encoding="utf-8"))

    @pytest.mark.skipif(_no_forced_kernel() is not None, reason=str(_no_forced_kernel()))
    def test_bits_do_not_depend_on_the_blas_kernel(self):
        # the same record in a child whose OpenBLAS runs the Haswell (AVX2) kernel, the one an
        # AVX2-only CPU gets, whatever this CPU's own kernel is
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_VERBOSE="2",
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        code = "import json, test_correlators; print(json.dumps(test_correlators.table_bit_record()))"
        proc = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "Core: Haswell" in proc.stderr       # the kernel was forced
        assert json.loads(proc.stdout) == json.loads(TABLE_BITS.read_text(encoding="utf-8"))


def _exact(terms) -> float:
    """The float terms summed exactly and rounded once."""
    return float(sum(map(Fraction, terms)))


class TestCorrectlyRoundedSums:
    """Each moment of a probability table or an ensemble is its float terms summed exactly and rounded once."""

    @pytest.mark.parametrize("na, nb", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_probability_moments_and_marginals(self, na, nb):
        rng = np.random.default_rng([2027, na, nb])
        for _ in range(40):
            pt = random_probability_table(rng, na, nb)
            oa, ob, p = pt.outcomes_a.tolist(), pt.outcomes_b.tolist(), pt.p.tolist()
            moments = correlators._context_moments(pt)
            for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
                cells = [(p[i][j][x][y], a, b) for x, a in enumerate(oa) for y, b in enumerate(ob)]
                terms = ([q * a for q, a, _ in cells], [q * b for q, _, b in cells],
                         [q * (a * a) for q, a, _ in cells], [q * (b * b) for q, _, b in cells],
                         [q * a * b for q, a, b in cells])
                assert [m[k] for m in moments] == [_exact(t) for t in terms]
            report = check_no_signaling(pt, tol=0.0)
            alice, bob = report["worst_alice"], report["worst_bob"]
            s, x = alice["setting"], oa.index(alice["outcome"])
            assert alice["marginals"] == [_exact(p[s][j][x]) for j in (0, 1)]
            s, y = bob["setting"], ob.index(bob["outcome"])
            assert bob["marginals"] == [_exact([row[y] for row in p[i][s]]) for i in (0, 1)]

    def test_ensemble_moments(self):
        rng = np.random.default_rng(2028)
        v = VERTEX_VALUES
        signs = [*v.T, v[:, 0] * v[:, 2], v[:, 0] * v[:, 3], v[:, 1] * v[:, 2], v[:, 1] * v[:, 3],
                 v[:, 0] * v[:, 1], v[:, 2] * v[:, 3], v.prod(axis=1)]
        for n in range(200):
            w = rng.dirichlet(np.full(16, (0.05, 0.3, 1.0, 2.0)[n % 4]))
            ens = LhvEnsemble(w)
            w = w.tolist()
            expected = [_exact([x if sign > 0 else -x for x, sign in zip(w, s)]) for s in signs]
            assert lhv._raw_moments(ens, 11) == expected
            stats = statistics_of(ens)
            assert stats.raw_e.ravel().tolist() == expected[4:8] and stats.q == expected[10]
