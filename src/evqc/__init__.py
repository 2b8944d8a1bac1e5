"""Desk-scale simulator of an expectation-value quantum computer read out
under NMR constraints: ensemble states, traceless transverse measurements,
and the oracle decision protocols that still work there."""

from evqc.adversary import cn_witness, min_queries, verify_adversary
from evqc.engine import (
    Decision,
    Resolution,
    Verdict,
    b_matrix,
    cn_decide_thermal,
    dj_decide_lifted,
    dj_decide_pseudopure,
    distinguishable,
    expectation,
    is_balanced_wrt,
    s_functional,
    satisfiability_gap,
)
from evqc.funcspace import (
    BoolFunc,
    FunctionClass,
    classify,
    complement,
    enumerate_class,
    hamming,
    imbalance,
    is_in_cn,
    lift,
    permute,
    sample_cn,
)
from evqc.measstruct import (
    InvariantForm,
    NotInvariantFormError,
    check_permutation_invariance,
    decompose_invariant,
    necessary_conditions,
    search_max_c_ratio,
)
from evqc.spinops import (
    EigenSpectrum,
    Operator,
    eig_multiset,
    oracle,
    single_spin,
    spectral_range,
    total_spin,
    unitarily_equivalent,
    w_projector,
)
from evqc.states import (
    DensityMatrix,
    SpinSystem,
    demo_system,
    pseudopure,
    pulsed_thermal,
    pure_w,
    thermal_state,
)
from evqc.timedomain import (
    Hamiltonian,
    SignalTrace,
    hamiltonian,
    heisenberg_op,
    signal,
    spectrum,
    transverse_signal,
)

__version__ = "0.1.0"
