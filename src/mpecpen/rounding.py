"""Rounding-error bounds of IEEE double precision for the exact margins.

Under round to nearest every basic operation returns
fl(a op b) = (a op b)(1 + delta) with |delta| <= u = 2^-53, barring
underflow and overflow.  A product of k factors (1 + delta_i)^(+-1) lies
within gamma_k = k u / (1 - k u) of 1 whenever k u < 1 (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., 2002, Lemma 3.1).  So a
sum of products, evaluated in any order (and so by any BLAS kernel), in
which no term passes through more than k roundings lies within gamma_k
times the same sum of absolute values of its exact value (sec. 3.1 and
eq. 3.5); a dot product of length k is the standard case.  The screen
of the polyhedral projection (``errorbound``) derives its margin from
this one bound, and the P-matrix certificate of ``lcp_oracle`` its
shift.  The LCP enumeration needs no margin: its checks make per basis
the same calls as a basis checked alone.
"""

#: unit roundoff of IEEE double precision
U = 2.0 ** -53
#: the smallest positive subnormal double: a product or quotient that
#: underflows lies within ETA of its exact value instead of within u of it
ETA = 2.0 ** -1074


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of a
    computation in which no term passes through more than k roundings."""
    return k * U / (1.0 - k * U)
