"""Floating-point tolerances, pinned in one place; exact claims compare to 0.0."""

PROB_SUM_TOL = 1e-9  # PauliChannel: |sum p - 1|
COMPLETENESS_TOL = 1e-10  # SpanChannel: ||sum F_dag F - I|| / ||I|| (Frobenius)
CLASSICAL_TOL = 1e-12  # an ancilla this close to some |ij><ij| is classical
HYBRID_TOL = 1e-11  # classical ancilla: decoded state vs sigma ox rho
# even-n conjugation residuals were checked against this before that path
# became exact (both parities must now be 0.0); kept while the benchmark's
# conjugation check still reads it through cli
CONJ_TOL_EVEN = 1e-11
TRIAL_TOL = 1e-11  # each residual of a verify trial
HERMITIAN_TOL = 1e-12  # run_trial: largest |m - m_dag| entry of sigma and of rho
TRACE_TOL = 1e-12  # run_trial: |tr m - 1| of sigma and of rho, so 2e-12 < TRIAL_TOL
