"""Floating-point tolerances, pinned in one place; exact claims compare to 0.0."""

PROB_SUM_TOL = 1e-9  # PauliChannel: |sum p - 1|
COMPLETENESS_TOL = 1e-10  # SpanChannel: Frobenius norm of sum F_dag F - I
CLASSICAL_TOL = 1e-12  # an ancilla this close to some |ij><ij| is classical
HYBRID_TOL = 1e-11  # classical ancilla: decoded state vs sigma ox rho
CONJ_TOL_EVEN = 1e-11  # even-n conjugation residuals (odd n must be 0.0)
TRIAL_TOL = 1e-11  # each residual of a verify trial
