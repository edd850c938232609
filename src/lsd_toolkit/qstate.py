"""Two-qubit state model: validation, spin flip, and the lambda spectrum.

Basis order is |uu>, |ud>, |du>, |dd>.  The spin flip conjugates with
sigma_y (x) sigma_y, which in this basis is the real antidiagonal
(-1, 1, 1, -1).  The module also holds the JSON codec of every record in
the package, to_json and from_json.
"""

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, partial
from typing import Annotated, Union, get_args, get_origin

import numpy as np

from .errors import NotHermitian, NotPSD, NotUnitTrace
from .matcore import herm_eig, support

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
    """Sum of |v><v| over the four rows v of vs, added in row order."""
    t = vs[:, :, None] * np.conj(vs)[:, None, :]
    # added from 0 in row order, as Python's sum does: the last bits depend on it
    return 0 + t[0] + t[1] + t[2] + t[3]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated, immutable 4x4 density matrix.

    Construction copies its input, checks hermiticity and unit trace
    within 1e-10 and rejects eigenvalues below -1e-10.  The eigenpair of
    that check is kept on the instance, so the state is eigendecomposed
    once; wootters_basis keeps its result there too.  Neither is a
    dataclass field, so to_json and from_json see only m.  m and the
    kept arrays are read-only.  Like every record that holds arrays, a
    state compares and hashes by identity.
    """

    m: ComplexArray = field(metadata={"json": "matrix"})

    def __post_init__(self):
        arr = np.array(self.m, dtype=complex)
        if arr.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if not np.isfinite(arr).all():
            raise NotHermitian("matrix has non-finite entries")
        herm = float(np.abs(arr - arr.conj().T).max())
        if herm > 1e-10:
            raise NotHermitian("max|m - m^dag| = %.3e exceeds 1e-10" % herm)
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > 1e-10:
            raise NotUnitTrace("|trace - 1| = %.3e exceeds 1e-10" % abs(tr - 1.0))
        w, v = herm_eig(arr)
        if w[-1] < -1e-10:
            raise NotPSD("eigenvalue %.3e below -1e-10" % w[-1])
        _read_only(arr, w, v)
        object.__setattr__(self, "m", arr)
        object.__setattr__(self, "_eig", (w, v))


def spin_flip_vec(v):
    """Spin flip of a two-qubit vector: SIGMA_YY @ conj(v)."""
    return SIGMA_YY @ np.conj(v)


def lambda_spectrum_raw(m):
    """Lambda spectrum of a raw Hermitian PSD matrix.

    Returns the descending eigenvalues of sqrt(sqrt(m) mtilde sqrt(m))
    where mtilde is the spin flip of m.  Scales linearly with m, which is
    what lets generated states be normalized after the fact.

    With m = g g^dag and g = V sqrt(w) from one herm_eig call, the
    lambdas are the singular values of the complex symmetric
    g^T SIGMA_YY g, since g^dag mtilde g is its Gram matrix.  One SVD
    finds them without squaring the condition number, and the route
    shares no step with the Takagi factorization of wootters_basis.
    Eigenvalues at or below the support cut drop out of g, so a low-rank
    state's trailing lambdas are exact zeros.  herm_eig checks m first:
    a non-finite or non-Hermitian m raises NotHermitian, and an
    eigenvalue below -1e-10 raises NotPSD.
    """
    w, v = herm_eig(m)
    if w[-1] < -1e-10:
        raise NotPSD("matrix eigenvalue %.3e below -1e-10" % w[-1])
    keep = support(w)
    g = v[:, keep] * np.sqrt(w[keep])
    lam = np.zeros(w.size)
    lam[: g.shape[1]] = np.linalg.svd(g.T @ SIGMA_YY @ g, compute_uv=False)
    return lam


def lambda_spectrum(rho):
    """Lambda spectrum of a validated state, a descending (4,) float array."""
    return lambda_spectrum_raw(rho.m)


def eigen_ensemble(rho):
    """Eigen-ensemble of a state: v_i = sqrt(mu_i) times the i-th eigenvector.

    Returns the subnormalized vectors as the rows of a complex (4, 4)
    array; their |v_i><v_i| sum to the state.  Reads the eigenpair the
    state kept from its validation, so it solves no eigenproblem.
    Eigenvalues at or below the support cut of matcore.support, 8 eps
    times the largest, produce exact zero rows, so later stages can rely
    on rank-deficient vectors being identically zero.
    """
    w, v = rho._eig
    keep = support(w)
    vs = np.zeros((4, 4), dtype=complex)
    vs[keep] = np.sqrt(w[keep])[:, None] * v[:, keep].T
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
