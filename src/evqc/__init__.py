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
    expectations,
    s_functionals,
)
from evqc.funcspace import (
    BoolFunc,
    FunctionClass,
    classify,
    complement,
    enumerate_class,
    imbalance,
    is_in_cn,
    lift,
    sample_cn,
)
from evqc.measstruct import InvariantForm, search_max_c_ratio
from evqc.spinops import (
    Operator,
    single_spin,
    total_spin,
    w_projector,
)
from evqc.states import (
    DensityMatrix,
    SpinSystem,
    demo_system,
    pulsed_thermal,
    pure_w,
)
from evqc.timedomain import (
    SignalTrace,
    hamiltonian,
    heisenberg_op,
    signal,
    spectrum,
    transverse_signal,
)

__version__ = "0.1.0"
