"""Correctness gate: a row fails on a non-zero exit code, on a value outside
tolerance of the committed reference, or on a violation of the repository's
own criterion for that output.  The failed share of rows is the
benchmark's fail ratio.
"""

from __future__ import annotations

import math

# Numbers agree when |a - b| <= RTOL * max(|a|, |b|) + ATOL; ATOL lets
# round-off-level residuals (1e-16 .. 1e-10) differ between BLAS builds.
RTOL = 1e-6
ATOL = 1e-9


def close(a, b) -> bool:
    """Structural comparison of JSON values; inf equals inf of the same sign."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return False


def _finite_positive(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in vals)


def criterion(kind: str, row: dict) -> str | None:
    """The repository's own acceptance check for one output row, or None."""
    if kind == "rellich":
        # criterion 10: the Gamma_ND graph lies in the + spectral subspace
        if not row["graph_residual"] <= 1e-6:
            return f"graph residual {row['graph_residual']:.3e} > 1e-6"
    elif kind == "norms":
        # criterion 13: trace norms and strip norms are equivalent
        if not all(1e-2 < r < 1e2 for r in (row["ratio_H0_over_NT"], row["ratio_H0t_over_sqfn"])):
            return "norm ratio outside (1e-2, 1e2)"
    elif kind == "quadnorms":
        # criterion 9: adapted norms equivalent to the S norm
        if not all(_finite_positive(r) and 1e-3 < r < 1e3 for r in row["ratios"]):
            return "quadratic-norm ratio outside (1e-3, 1e3)"
    elif kind == "solve":
        # criterion 11: on smooth general coefficients the energy solution
        # and the oracle agree on the strip
        if row["problem"] == "energy" and not row["oracle_delta"] <= 5e-2:
            return f"oracle delta {row['oracle_delta']:.3e} > 5e-2"
        if not _finite_positive(row["strip_grad_norm"]):
            return "strip gradient norm not finite and positive"
    elif kind == "convergence":
        # criterion 5: first-order convergence of the oracle to the spectral map
        if "order_band" in row and not row["order_band"] >= 1.0:
            return f"convergence order {row['order_band']:.3f} < 1"
    elif kind == "verify":
        if row["failures"] or row.get("key_lemma_ok") is False:
            return "; ".join(row["failures"]) or "key lemma floor violated"
    return None


def check_rep(plan: list[dict], result: dict | None, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted rows, failed rows, messages) for one repetition.

    ``reference`` maps part name to its committed rows; a part that did not
    run to completion fails every row the reference expects of it.
    """
    attempted = failed = 0
    notes = []
    for part in plan:
        name, kind = part["name"], part["kind"]
        expected = reference[name]
        got = (result or {}).get("parts", {}).get(name, {})
        rows = got.get("rows")
        if got.get("rc") != 0 or rows is None:
            attempted += len(expected)
            failed += len(expected)
            notes.append(f"{name}: did not complete (exit code {got.get('rc')})")
            continue
        attempted += max(len(rows), len(expected))
        failed += abs(len(rows) - len(expected))
        if len(rows) != len(expected):
            notes.append(f"{name}: {len(rows)} rows, reference has {len(expected)}")
        for i, (row, ref) in enumerate(zip(rows, expected)):
            why = criterion(kind, row)
            if why is None and not close(row, ref):
                why = "differs from the reference"
            if why is not None:
                failed += 1
                notes.append(f"{name} row {i} ({row.get('id', row.get('N', ''))}): {why}")
    return attempted, failed, notes
