"""Two-qubit state model: validation, spin flip, and the lambda spectrum.

Basis order is |uu>, |ud>, |du>, |dd>.  The spin flip conjugates with
sigma_y (x) sigma_y, which in this basis is the real antidiagonal
(-1, 1, 1, -1); every spin-flip overlap in the package is read from
_flip_form.  The module also holds the JSON codec of every record in
the package, to_json and from_json.
"""

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, cached_property, partial
from typing import Annotated, Union, get_args, get_origin

import numpy as np

from .errors import NotPSD, NotUnitTrace
from .matcore import _checked_top, herm_eig, support

# field annotations naming an array's entry type, which from_json reads,
# and the JSON types from_json accepts for each scalar field type
ComplexArray = Annotated[np.ndarray, complex]
RealArray = Annotated[np.ndarray, float]
_SCALARS = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}

SIGMA_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _family(vs, name):
    """Four vectors as a complex (4, 4) copy, vector i in row i.

    The shape is tested before the cast: older numpy builds a ragged
    family as an object array of rows.
    """
    arr = np.asarray(vs)
    if arr.shape != (4, 4):
        raise ValueError("need exactly four %s vectors of four entries" % name)
    return arr.astype(complex)


def _outer_sum(vs):
    """Sum of |v><v| over the four rows v of vs."""
    return vs.T @ np.conj(vs)


def _unit_trace(arr):
    tr = complex(arr.trace())
    if abs(tr - 1.0) > 1e-10:
        raise NotUnitTrace("|trace - 1| = %.3e exceeds 1e-10" % abs(tr - 1.0))


def _psd_eig(w, v):
    """The eigenpair (w, v) of a state, read-only; NotPSD below -1e-10."""
    if w[-1] < -1e-10:
        raise NotPSD("eigenvalue %.3e below -1e-10" % w[-1])
    _read_only(w, v)
    return w, v


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated, immutable 4x4 density matrix.

    Construction copies its input and raises, in this order, herm_eig's
    NotHermitian, NotUnitTrace past 1e-10 and NotPSD below -1e-10.  A
    state is eigendecomposed at most once: at construction from a
    matrix, where the eigenpair of that check is kept on the instance,
    or, for a Gram sum the package builds itself (_gram_state), on the
    first read of the eigenpair, which then runs herm_eig's hermiticity
    test and the PSD test.  wootters_basis keeps its result on the state
    too.  Neither is a dataclass field, so to_json and from_json see
    only m.  m and the kept arrays are read-only.  Like every record
    that holds arrays, a state compares and hashes by identity.
    """

    m: ComplexArray = field(metadata={"json": "matrix"})

    def __post_init__(self):
        arr = np.array(self.m, dtype=complex)
        if arr.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        w, v = herm_eig(arr)
        _unit_trace(arr)
        eig = _psd_eig(w, v)
        _read_only(arr)
        object.__setattr__(self, "m", arr)
        # an instance attribute, which shadows the property below
        object.__setattr__(self, "_eig", eig)

    @cached_property
    def _eig(self):
        # reached only by a _gram_state, whose construction set no _eig
        return _psd_eig(*herm_eig(self.m))


def _gram_state(rows, scale):
    """The state sum_i |r_i><r_i| / scale of the rows r_i of rows.

    Such a sum is Hermitian and PSD by construction, so it is not
    eigendecomposed here; the two checks that it can fail run in
    DensityMatrix's order and with its messages: an entry that is not
    finite or above MAX_ENTRY raises NotHermitian, then a trace off 1 by
    more than 1e-10 NotUnitTrace.  The hermiticity residual and the PSD
    test run, unchanged, when the eigenpair is first read.
    """
    arr = _outer_sum(rows) / scale
    _checked_top(arr)
    _unit_trace(arr)
    _read_only(arr)
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "m", arr)
    return state


def _flip_form(rows):
    """Spin-flip overlaps <r_i|rtilde_j>, rtilde = SIGMA_YY conj(r), of the
    rows of a family: the complex symmetric conj(rows) SIGMA_YY conj(rows)^T."""
    rc = np.conj(rows)
    return rc @ SIGMA_YY @ rc.T


def lambda_spectrum_raw(m):
    """Lambda spectrum of a raw Hermitian PSD matrix.

    Returns the descending eigenvalues of sqrt(sqrt(m) mtilde sqrt(m))
    where mtilde is the spin flip of m.  Scales linearly with m, which is
    what lets generated states be normalized after the fact.

    With m = g g^dag and g = V sqrt(w) from one herm_eig call, the
    lambdas are the singular values of tau = _flip_form(g^T), since
    g^dag mtilde g is the Gram matrix of conj(tau).  One SVD finds them
    without squaring the condition number; wootters_basis
    Takagi-factorizes the same tau instead.
    Eigenvalues at or below the support cut drop out of g, so a low-rank
    state's trailing lambdas are exact zeros.  An m of another shape than
    4x4 raises ValueError; herm_eig then checks m: an m that is not
    Hermitian or has an entry that is not finite or above 2**1000 raises
    NotHermitian, and an eigenvalue below -1e-10 raises NotPSD.
    """
    if np.shape(m) != (4, 4):
        raise ValueError("lambda_spectrum_raw expects a 4x4 matrix")
    w, v = herm_eig(m)
    if w[-1] < -1e-10:
        raise NotPSD("matrix eigenvalue %.3e below -1e-10" % w[-1])
    return _spectrum_of_eig(w, v)


def _ensemble_rows(w, v):
    """Rows sqrt(mu_i) v_i of the eigenpair (w, v) over the support cut,
    which keeps the first len(result) of the descending w."""
    keep = support(w)
    return np.sqrt(w[keep])[:, None] * v[:, keep].T


def _spectrum_of_eig(w, v):
    """Lambdas of the PSD matrix with eigenpair (w, v): the singular values
    of the spin-flip overlaps of its eigen-ensemble."""
    rows = _ensemble_rows(w, v)
    lam = np.zeros(w.size)
    lam[: len(rows)] = np.linalg.svd(_flip_form(rows), compute_uv=False)
    return lam


def lambda_spectrum(rho):
    """Lambda spectrum of a validated state, a descending (4,) float array.

    The route of lambda_spectrum_raw, from the eigenpair the state
    keeps, so it solves no eigenproblem the state has solved before.
    """
    return _spectrum_of_eig(*rho._eig)


def eigen_ensemble(rho):
    """Eigen-ensemble of a state: v_i = sqrt(mu_i) times the i-th eigenvector.

    Returns the subnormalized vectors as the rows of a complex (4, 4)
    array; their |v_i><v_i| sum to the state.  Reads the eigenpair the
    state keeps, so it solves no eigenproblem the state has solved before.
    Eigenvalues at or below the support cut of matcore.support, 8 eps
    times the largest, produce exact zero rows, so later stages can rely
    on rank-deficient vectors being identically zero.
    """
    rows = _ensemble_rows(*rho._eig)
    vs = np.zeros((4, 4), dtype=complex)
    vs[: len(rows)] = rows
    return vs


def sample_random(seed, rank=4):
    """Random state of the given rank from a seeded complex Ginibre factor.

    The same seed always produces the same state bit for bit.
    """
    if rank not in (1, 2, 3, 4):
        raise ValueError("rank must be between 1 and 4")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return DensityMatrix(m)


def _json_key(f):
    return f.metadata.get("json", f.name)


@cache
def _encoder(cls):
    """to_json's plan for the values of one type.

    For a dataclass it holds the field names and JSON keys; for any
    other type, the conversion its values need.
    """
    if is_dataclass(cls):
        keys = tuple((f.name, _json_key(f)) for f in fields(cls))
        return lambda rec: {key: to_json(getattr(rec, name)) for name, key in keys}
    if issubclass(cls, np.ndarray):
        return lambda a: to_json(a.tolist())
    if issubclass(cls, (list, tuple)):
        return lambda xs: [to_json(x) for x in xs]
    if cls is type(None) or issubclass(cls, (bool, str)):
        return lambda x: x
    if issubclass(cls, (complex, np.complexfloating)):
        return lambda z: [float(z.real), float(z.imag)]
    if issubclass(cls, (int, np.integer)):
        return int
    return float


def to_json(record):
    """JSON form of a record: a dict with one key per dataclass field.

    Keys follow the declaration order (DensityMatrix.m is written under
    "matrix").  A complex number becomes [re, im], an array or tuple a
    list, and a numpy scalar the matching Python number.  The encoding
    plan of each type (a record's field and key list, a leaf's
    conversion) is built on its first use and kept for the process.
    """
    return _encoder(type(record))(record)


def _scalar(cls, obj):
    # bool is an int subclass, but true is not a number on the wire
    if isinstance(obj, _SCALARS[cls]) and (cls is bool or not isinstance(obj, bool)):
        return cls(obj)
    raise ValueError("expected %s, got %r" % (cls.__name__, obj))


_float = partial(_scalar, float)


def _complex(obj):
    if isinstance(obj, list) and len(obj) == 2:
        return complex(_float(obj[0]), _float(obj[1]))
    raise ValueError("expected [re, im], got %r" % (obj,))


@cache
def _decoder(cls):
    """from_json's plan for one annotation: a function of the JSON value.

    A dataclass's plan holds its field names, JSON keys and the plan of
    each field's annotation; Optional, Tuple and the array annotations
    wrap the plan of their entry type.
    """
    if is_dataclass(cls):
        plan = tuple((f.name, _json_key(f), _decoder(f.type)) for f in fields(cls))
        return lambda obj: cls(**{name: dec(obj[key]) for name, key, dec in plan})
    origin, args = get_origin(cls), get_args(cls)
    if origin is Union:
        entry = _decoder(args[0])
        return lambda obj: None if obj is None else entry(obj)
    if origin is tuple:
        entry = _decoder(args[0])
        return lambda obj: tuple(entry(x) for x in obj)
    if origin is Annotated:
        entry, complex_entries = _decoder(args[1]), args[1] is complex

        def array(obj):
            # a complex entry is itself a list, so only a list of lists nests
            if isinstance(obj, list) and (
                not complex_entries or (obj and isinstance(obj[0], list))
            ):
                return np.array([array(x) for x in obj])
            return entry(obj)

        return array
    if cls is complex:
        return _complex
    return partial(_scalar, cls)


def from_json(cls, obj):
    """Inverse of to_json: a value of type cls from its JSON form.

    cls is a dataclass or one of the annotations its fields use:
    Optional[T], Tuple[T, ...], ComplexArray, RealArray or a scalar type.
    A scalar of the wrong kind, or a complex entry that is not exactly two
    numbers, raises ValueError; a missing key raises KeyError, and a list
    where an object belongs TypeError.  The record's constructor then
    validates the values.  The decoding plan of each type (its fields,
    their JSON keys and a decoder per field annotation) is built on its
    first use and kept for the process.
    """
    return _decoder(cls)(obj)


density_to_json = to_json
density_from_json = partial(from_json, DensityMatrix)
