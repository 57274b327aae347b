"""Single-cell composition priors.

Learns per-cell-type signature rates from multi-batch single-cell counts with a
negative binomial regression model, deconvolves spot counts into cell-type
abundances with a mean-field log-normal variational posterior, and turns the
conservative 5% abundance quantiles into the per-spot cellular gating signal,
an (S, T) array whose rows sum to the spots' cell counts.

Parameterization notes
----------------------
All strictly positive parameters (rates mu, cell scales l, dispersions) live
as unconstrained reals mapped through softplus plus a 1e-6 floor. Batch
effects are plain reals with batch 0 pinned to zero for identifiability, and
cell scales are renormalized to mean 1 after every epoch (a pure
reparameterization: the rescale is absorbed into mu so the objective value is
unchanged). The signature fit starts from the method-of-moments NB fit of
_init_signature_model, as edgeR and DESeq2 start theirs, and steps each
group by its share of the table: a cell's scale by C, a gene's dispersion
by G, a type's rates and a batch's effects by C*G over the group's cell
count. The deconvolution posterior over abundances w and detection
efficiency d is log-normal: w = exp(loc + exp(logstd) * eps). Its KL against
the log-normal(0,1) prior is closed-form; the likelihood term uses one
reparameterized Monte-Carlo sample per step with noise drawn from a
counter-based stream keyed by step index, so runs replay exactly. The
posterior does not start at a uniform mix: each spot's abundances first take
START_STEPS multiplicative Poisson updates with the panel fixed (Lee & Seung,
NIPS 2001), a closed-form maximum-likelihood fit that the VI steps refine.

Kernel
------
Both fits spend their time in one NB kernel, ``_nb_terms``, which returns
the log-likelihood sum, dll/dmu and the column sums of dll/ddisp per step.
Each fit first builds a count table (``_count_table``) once, which rejects
any count that is not a non-negative integer: one C-ordered float64 copy of
the counts, their distinct (count, gene) pairs with how often each occurs,
and lnΓ(x+1) per pair. A step does (S, G) work only
for dll/dmu, the textbook expression entry for entry, and for what it
shares with the rest, which comes from reductions: the lnΓ and ψ terms per
distinct pair, weighted by its count; column sums of log(mu+disp) and
(x+disp)/(mu+disp); and x.log(mu), x.log(mu+disp) as dot products. So the
log-likelihood and dll/ddisp agree with the per-entry formulas (kept in the
tests as oracles) within the floating-point summation bound, and as every
array shares the one C layout, a fit does not depend on its input's.

The lnΓ and ψ terms enter only as differences, lnΓ(x+disp) - lnΓ(disp)
and ψ(x+disp) - ψ(disp), and ``_lgamma_psi_diffs`` computes them in numpy.
Below x = 16 they are the exact finite sums over disp+i, i < x: the log of
a running product and a running sum of reciprocals, one (17, G) table of
each per step. From 16 up they come from the asymptotic series of lnΓ and
ψ (Abramowitz & Stegun 6.1.41, 6.3.18), whose truncation there is below an
ulp, at x+disp, minus lnΓ(disp) and ψ(disp) from the series at disp+16 and
the tables. The count table keeps where each pair's terms come from, so a
step only gathers them.

The table also owns the fit's scratch: three C-ordered (S, G) float64
arrays, allocated once. Every (S, G) intermediate of a step, in the kernel
and in both losses, is written into them through ``out=``, so a step
allocates no (S, G) array: the allocator would hand a freed array of that
size back to the kernel, and faulting them in again, zeroed, on every step
costs about as much as the arithmetic. The dll/dmu ``_nb_terms`` returns is
one of these arrays: it is valid until the next call on the same table, and
a caller that keeps it across calls must copy it. The signature fit's table
also holds the cells' row order by type and by batch, so each step's
per-group gradient sums gather rows into scratch instead of building masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Rng, SgdState, as_matrix, descend
from .errors import InputError, NumericError

POSITIVE_FLOOR = 1e-6
BATCH_PENALTY = 1e-3
PRIOR_Z05 = -1.6448536269514722  # standard normal 5% quantile
# the deconvolution's closed-form start: multiplicative Poisson steps, and the
# floor on each abundance as a share of the spot's uniform-mix abundance d0
START_STEPS = 30
START_FLOOR = 1e-8
# the signature fit's moment start: the floor on its rates and cell scales,
# and the range its dispersions are clipped to
SIG_FLOOR = 0.05
DISP_RANGE = (0.1, 100.0)
# the step sizes the pipeline fits the signatures and the deconvolution with,
# each annealed to a tenth over its fit by _scaled_step
SIG_LR = 0.2
DECONV_LR = 0.1


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise InputError("softplus inverse needs positive values")
    # log(e^y - 1) = y + log(1 - e^-y), stable for large y
    return y + np.log(-np.expm1(-np.minimum(y, 700.0)))


def positive(raw):
    return softplus(raw) + POSITIVE_FLOOR


def positive_inv(value):
    return softplus_inv(np.maximum(np.asarray(value, dtype=np.float64) - POSITIVE_FLOOR, 1e-12))


def positive_grad(raw):
    """The logistic function, d positive / d raw; exp(-|raw|) never overflows."""
    e = np.exp(-np.abs(raw))
    return np.where(raw >= 0, 1.0, e) / (1.0 + e)


def validate_counts(counts, what: str = "counts", dtype=np.int64) -> np.ndarray:
    """`counts` as a `dtype` matrix, copied only when its dtype differs;
    InputError unless every entry is a non-negative integer."""
    arr = np.asarray(counts)
    if arr.ndim != 2:
        raise InputError(f"{what} must be a 2-D matrix")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.all(np.isfinite(arr)) or np.any(np.abs(arr - rounded) > 0):
            raise InputError(f"{what} must be integers")
    if np.any(arr < 0):
        raise InputError(f"{what} must be non-negative")
    return arr.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass
class ScDataset:
    """Multi-batch single-cell counts with per-cell type and batch labels;
    every type in [0, n_types) and every batch in [0, n_batches) holds a cell."""

    counts: np.ndarray  # (C, G) non-negative ints
    cell_type: np.ndarray  # (C,) labels in [0, n_types)
    batch: np.ndarray  # (C,) labels in [0, n_batches)
    n_types: int = 0
    n_batches: int = 0

    def __post_init__(self):
        self.counts = validate_counts(self.counts, "single-cell counts")
        for name in ("cell_type", "batch"):  # a fractional label is refused, not truncated
            labels = np.asarray(getattr(self, name))
            if not (np.all(np.isfinite(labels)) and np.all(labels == np.rint(labels))):
                raise InputError(f"{name} labels must be integers")
            setattr(self, name, labels.astype(np.int64, copy=False))
        c = self.counts.shape[0]
        if c == 0:
            raise InputError("empty single-cell dataset")
        if self.cell_type.shape != (c,) or self.batch.shape != (c,):
            raise InputError("cell_type and batch must have one label per cell")
        if not self.n_types:
            self.n_types = int(self.cell_type.max()) + 1
        if not self.n_batches:
            self.n_batches = int(self.batch.max()) + 1
        if self.cell_type.min() < 0 or self.cell_type.max() >= self.n_types:
            raise InputError("cell_type labels out of range")
        if self.batch.min() < 0 or self.batch.max() >= self.n_batches:
            raise InputError("batch labels out of range")
        for name, labels, n in (("cell type", self.cell_type, self.n_types),
                                ("batch", self.batch, self.n_batches)):
            present = np.bincount(labels, minlength=n)
            if np.any(present == 0):
                raise InputError(f"{name} {int(np.argmin(present))} has no cells")

    @property
    def n_cells(self) -> int:
        return self.counts.shape[0]

    @property
    def n_genes(self) -> int:
        return self.counts.shape[1]


@dataclass
class NbSignatureModel:
    """Negative binomial signature model; all positives via softplus + floor."""

    raw_mu: np.ndarray  # (T, G)
    batch_effect: np.ndarray  # (B, G), row 0 pinned to zero
    raw_cell_scale: np.ndarray  # (C,)
    raw_dispersion: np.ndarray  # (G,)
    fit_trace: list = field(default_factory=list)

    @property
    def mu(self) -> np.ndarray:
        return positive(self.raw_mu)

    @property
    def cell_scale(self) -> np.ndarray:
        return positive(self.raw_cell_scale)

    @property
    def dispersion(self) -> np.ndarray:
        return positive(self.raw_dispersion)

    def signature(self) -> np.ndarray:
        """Signature matrix M (G x T): column t is cell type t's rate profile."""
        return self.mu.T.copy()

    def param_arrays(self) -> list[np.ndarray]:
        return [self.raw_mu, self.batch_effect, self.raw_cell_scale, self.raw_dispersion]


@dataclass
class DeconvPosterior:
    """The abundance posterior of a deconvolution: its means, its 5% quantiles
    and the fit's loss per step."""

    w_mean: np.ndarray  # (S, T) posterior means E[w]
    w_q05: np.ndarray  # (S, T) 5% quantiles, strictly positive
    fit_trace: list = field(default_factory=list)

    def proportions(self) -> np.ndarray:
        """Posterior-mean abundances normalized per spot."""
        return self.w_mean / self.w_mean.sum(axis=1, keepdims=True)

    def q05_normalized(self) -> np.ndarray:
        return self.w_q05 / self.w_q05.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Negative binomial kernel
# ---------------------------------------------------------------------------


# lnΓ and ψ differences: exact finite sums below this count K, the asymptotic
# series at and above it (Abramowitz & Stegun 6.1.41, 6.3.18). At z >= 16
# the first terms left out, 1/(156 z^13) and 1/(12 z^14), are below 1.5e-18,
# well under an ulp of lnΓ(z) or ψ(z).
_SERIES_FROM = 16
_STEPS = np.arange(_SERIES_FROM, dtype=np.float64)[:, None]  # i = 0 .. K-1
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
# coefficients of w^j, w = 1/z^2, highest first: lnΓ(z) = (z-1/2) log z - z
# + log(2π)/2 + (1/z) sum_j a_j w^j and ψ(z) = log z - 1/(2z) + w sum_j b_j w^j
_LGAMMA_COEF = (-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_PSI_COEF = (691 / 32760, -1 / 132, 1 / 240, -1 / 252, 1 / 120, -1 / 12)


def _lgamma_psi_series(z: np.ndarray, out: np.ndarray) -> None:
    """lnΓ(z) and ψ(z) into the rows of `out`, (2, n), for z >= _SERIES_FROM."""
    lg, psi = out
    log_z = np.log(z)
    inv = 1.0 / z
    w = np.square(inv)
    for row, coef in ((lg, _LGAMMA_COEF), (psi, _PSI_COEF)):
        np.multiply(w, coef[0], out=row)
        for c in coef[1:-1]:
            row += c
            row *= w
        row += coef[-1]
    lg *= inv
    psi *= w
    rest = np.subtract(z, 0.5, out=w)  # (z - 1/2) log z - z + log(2π)/2
    rest *= log_z
    rest -= z
    rest += _HALF_LOG_2PI
    lg += rest
    inv *= 0.5  # log z - 1/(2z)
    log_z -= inv
    psi += log_z


def _term_sources(count: np.ndarray, gene: np.ndarray, n_genes: int):
    """Where _lgamma_psi_diffs finds each (count, gene) pair's terms.

    Returns (source, far count, far gene): the counts >= K and their genes,
    and per pair its column in the values _lgamma_psi_diffs builds: entry
    c*G + gene of the (K+1, G) tables, or (K+1)*G + the pair's rank among
    the far ones.
    """
    k = _SERIES_FROM
    far = np.flatnonzero(count >= k)
    source = np.minimum(count, k).astype(np.intp) * n_genes + gene
    source[far] = (k + 1) * n_genes + np.arange(far.size)
    return source, count[far], gene[far]


def _lgamma_psi_diffs(alpha: np.ndarray, sources: tuple) -> np.ndarray:
    """lnΓ(c+α) - lnΓ(α) and ψ(c+α) - ψ(α) per (count c, gene) pair, α per
    gene, as the rows of a (2, P) array; ``sources`` is _term_sources'.

    For c < K = _SERIES_FROM they are exact finite sums, read from per-gene
    tables of the K steps α+i: the log of their running product and the
    running sum of their reciprocals. For c >= K they are the series at c+α,
    minus lnΓ(α) and ψ(α): the series at α+K minus the tables' full sums.
    Each gene's steps are scaled by a power of two, exactly, where that keeps
    their product finite, so no finite α overflows it.
    """
    source, far_count, far_gene = sources
    k, g_n, n_far = _SERIES_FROM, alpha.size, far_count.size
    n_tab = (k + 1) * g_n
    # columns: the tables, the far pairs, then lnΓ and ψ at α per gene
    values = np.empty((2, n_tab + n_far + g_n))
    tables = values[:, :n_tab].reshape(2, k + 1, g_n)  # row c: count c
    log_prod, recip_sum = tables
    tables[:, 0] = 0.0
    steps = _STEPS + alpha  # (K, G): α + i
    shift = np.maximum(np.frexp(steps[-1])[1] - 62, 0)  # each step below 2^62
    np.cumprod(steps * np.ldexp(1.0, -shift), axis=0, out=log_prod[1:])
    np.log(log_prod[1:], out=log_prod[1:])
    log_prod[1:] += (_STEPS + 1.0) * (shift * np.log(2.0))
    np.cumsum(1.0 / steps, axis=0, out=recip_sum[1:])

    z = np.empty(n_far + g_n)
    np.take(alpha, far_gene, out=z[:n_far])
    z[:n_far] += far_count
    np.add(alpha, k, out=z[n_far:])
    _lgamma_psi_series(z, values[:, n_tab:])
    at_alpha = values[:, n_tab + n_far:]
    at_alpha -= tables[:, k]  # lnΓ(α), ψ(α)
    for far_row, alpha_row in zip(values[:, n_tab:n_tab + n_far], at_alpha):
        far_row -= np.take(alpha_row, far_gene, out=z[:n_far])
    return np.take(values, source, axis=1)


@dataclass
class _CountTable:
    """A count matrix as its distinct (count, gene) pairs and how often each
    occurs, and the scratch arrays its fit reuses on every step.

    Scratch use, three C-ordered (S, G) float64 arrays: 0 and 1 are
    ``_nb_terms``' working arrays (it returns dll/dmu in 0) and 2 holds the
    loss's rate, and before the deconvolution's first step its start's
    ratio; signature_loss also uses 0 and 1 before and after the kernel.
    """

    x: np.ndarray  # (S, G) float64 counts, C-contiguous
    count: np.ndarray  # (P,) count of each distinct pair, by gene, ascending
    gene: np.ndarray  # (P,) gene of each distinct pair
    mult: np.ndarray  # (P,) float64 number of entries holding each pair
    sources: tuple  # _term_sources(count, gene, G)
    lgamma_x1: np.ndarray  # (P,) lnΓ(count + 1)
    scratch: list = field(repr=False)  # 3 (S, G) float64 arrays
    groups: tuple = ()  # signature fits: (rows, starts) by type, by batch


def _count_table(counts, what: str = "counts", groups: tuple = ()) -> _CountTable:
    """Validate a count matrix once and tabulate its distinct (count, gene) pairs."""
    x = np.ascontiguousarray(validate_counts(counts, what, np.float64))
    # each gene's counts in ascending order; a pair starts where they change
    by_gene = x.T.copy()
    by_gene.sort(axis=1)
    first = np.ones(by_gene.shape, dtype=bool)
    first[:, 1:] = by_gene[:, 1:] != by_gene[:, :-1]
    count, gene = by_gene[first], np.nonzero(first)[0]
    mult = np.diff(np.append(np.flatnonzero(first), first.size)).astype(np.float64)
    del by_gene, first  # so the scratch can take the sort's memory
    sources = _term_sources(count, gene, x.shape[1])
    lgamma_x1 = _lgamma_psi_diffs(np.ones(x.shape[1]), sources)[0].copy()
    return _CountTable(x=x, count=count, gene=gene, mult=mult, sources=sources,
                       lgamma_x1=lgamma_x1,
                       scratch=[np.empty(x.shape) for _ in range(3)],
                       groups=groups)


def _nb_terms(table: _CountTable, mu: np.ndarray, disp: np.ndarray):
    """Log-likelihood sum and gradients of NB(mu, disp) at the table's counts.

    mu: (S, G) positive finite rates (the callers check them); disp: (G,)
    inverse dispersions. Returns (sum of the log pmf, dll/dmu as a C-ordered
    (S, G) array, column sums of dll/ddisp as a (G,) array). Per entry the log
    pmf is lnΓ(x+disp) - lnΓ(disp) - lnΓ(x+1)
    + disp*(log(disp) - log(mu+disp)) + x*(log(mu) - log(mu+disp)), and
    dll/ddisp is ψ(x+disp) - ψ(disp) + log(disp/(mu+disp))
    + (mu-x)/(mu+disp), which is summed here as ... + log(disp)
    - log(mu+disp) + 1 - (x+disp)/(mu+disp). Works in the table's scratch
    arrays 0 and 1, so mu must not be one of them; the returned dll/dmu is
    scratch array 0, valid until the next call on that table.
    """
    if not np.all(np.isfinite(disp)):
        raise NumericError("non-finite NB dispersion")
    if np.any(disp <= 0):
        raise InputError("NB dispersion must be positive")
    x, gene, mult = table.x, table.gene, table.mult
    s_n = x.shape[0]
    work, xd_total = table.scratch[0], table.scratch[1]

    # the lnΓ and ψ terms, once per distinct pair times its count
    lg, psi = _lgamma_psi_diffs(disp, table.sources)
    lg -= table.lgamma_x1
    ll = mult @ lg
    psi *= mult
    ddisp = np.bincount(gene, psi, minlength=disp.size)

    # (x+disp)/total per entry, which dll/dmu and dll/ddisp share
    total = np.add(mu, disp, out=work)
    np.add(x, disp, out=xd_total)
    xd_total /= total
    log_total = np.log(total, out=work)
    log_total_sum = log_total.sum(axis=0)
    s_log_disp = s_n * np.log(disp)
    ll += disp @ (s_log_disp - log_total_sum) - x.ravel() @ log_total.ravel()
    ll += x.ravel() @ np.log(mu, out=work).ravel()
    ddisp += s_log_disp - log_total_sum + s_n - xd_total.sum(axis=0)

    # dll/dmu = x/mu - (x+disp)/total, entry for entry
    dmu = np.divide(x, mu, out=work)
    dmu -= xd_total
    return float(ll), dmu, ddisp


# ---------------------------------------------------------------------------
# Signature learning (MAP)
# ---------------------------------------------------------------------------


def _scaled_step(opt: SgdState, grads: list, scales, lr: float, step: int,
                 steps: int) -> list:
    """Set opt.lr for step `step` of `steps`, `lr` annealed linearly to a
    tenth, and return each gradient times its scale: k for a group summing
    over 1/k of the averaged table, lest its step shrink as the table grows."""
    opt.lr = lr * (1.0 - 0.9 * step / max(1, steps - 1))
    return [g * k for g, k in zip(grads, scales)]


def _row_groups(labels: np.ndarray, n: int):
    """Rows sorted by label, ascending within each label, and where label k's
    rows start (entry n is the row count)."""
    rows = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=n))))
    return rows, starts


def _signature_table(data: ScDataset) -> _CountTable:
    """The count table of a signature fit, with its cells grouped by type and batch."""
    return _count_table(data.counts, "single-cell counts", groups=(
        _row_groups(data.cell_type, data.n_types),
        _row_groups(data.batch, data.n_batches),
    ))


def _group_sums(p: np.ndarray, groups, out: np.ndarray) -> np.ndarray:
    """Column sums of each group's rows of p, the rows added in ascending order.

    The rows are gathered into `out` (C-ordered, shaped like p) group by group,
    so each sum adds what p[labels == k].sum(axis=0) adds, in the same order.
    """
    rows, starts = groups
    np.take(p, rows, axis=0, out=out, mode="clip")
    return np.array([out[lo:hi].sum(axis=0) for lo, hi in zip(starts[:-1], starts[1:])])


def signature_loss(model: NbSignatureModel, data: ScDataset,
                   table: _CountTable | None = None):
    """Penalized negative mean log-likelihood and exact gradients.

    Loss = -(1/CG) sum_cg NB log pmf + (1e-3/CG) * ||batch_effect||^2, which
    is the MAP objective scaled by a constant, so the optimum is unchanged.
    ``table`` is ``_signature_table(data)``; fit_signatures builds it once
    per fit, and a call without it builds its own.
    """
    if table is None:
        table = _signature_table(data)
    c, g = table.x.shape
    scale = 1.0 / (c * g)

    mu_tg = model.mu
    l_c = model.cell_scale
    theta = model.dispersion
    # rate = l_c * exp(m_cg) * mu_type, built in scratch 0 and 1, kept in 2
    m_cg = np.take(np.exp(model.batch_effect), data.batch, axis=0,
                   out=table.scratch[0], mode="clip")
    mu_type = np.take(mu_tg, data.cell_type, axis=0,
                      out=table.scratch[1], mode="clip")
    np.multiply(l_c[:, None], m_cg, out=m_cg)
    rate = np.multiply(m_cg, mu_type, out=table.scratch[2])
    # NaN fails both comparisons, so this rejects what rate <= 0 or
    # non-finite rejects, without a boolean (C, G) temporary
    if not (rate.min() > 0 and rate.max() < np.inf):
        raise NumericError("signature model produced invalid rates")

    ll, s, grad_theta = _nb_terms(table, rate, theta)  # s = dll/drate
    penalty = BATCH_PENALTY * float(np.sum(model.batch_effect**2))
    loss = -scale * ll + scale * penalty

    # dll w.r.t. log-rate, reused for l, m, mu chains
    p = np.multiply(s, rate, out=s)
    by_type, by_batch = table.groups
    gathered = table.scratch[1]

    grad_mu = _group_sums(p, by_type, gathered) / mu_tg
    grad_raw_mu = -scale * grad_mu * positive_grad(model.raw_mu)

    grad_m = _group_sums(p, by_batch, gathered)
    grad_m = -scale * grad_m + scale * 2.0 * BATCH_PENALTY * model.batch_effect
    grad_m[0] = 0.0  # reference batch stays pinned

    grad_l = p.sum(axis=1) / l_c
    grad_raw_l = -scale * grad_l * positive_grad(model.raw_cell_scale)

    grad_raw_theta = -scale * grad_theta * positive_grad(model.raw_dispersion)

    return loss, [grad_raw_mu, grad_m, grad_raw_l, grad_raw_theta]


def _init_signature_model(data: ScDataset) -> NbSignatureModel:
    """The method-of-moments NB fit, batch effects at zero. A cell's scale
    l is its library size over its type's mean one (1 if that is 0), floored
    at SIG_FLOOR and renormalized to mean 1; a type's rates mu are its mean
    of z = x / l, floored at SIG_FLOOR; a gene's dispersion is mean(mu^2) /
    (var(z - mu) - mean(mu / l)) over the cells, clipped to DISP_RANGE (its
    top where the denominator is not positive)."""
    types = data.cell_type
    onehot = (types[:, None] == np.arange(data.n_types)).astype(np.float64)  # (C, T)
    n_t = onehot.sum(axis=0)
    lib = data.counts.sum(axis=1, dtype=np.float64)
    type_lib = (lib @ onehot / n_t)[types]
    scale = np.divide(lib, type_lib, out=np.ones(data.n_cells), where=type_lib > 0)
    scale = np.maximum(scale, SIG_FLOOR)
    scale /= scale.mean()

    z = data.counts / scale[:, None]  # (C, G)
    mu = onehot.T @ z / n_t[:, None]  # (T, G)
    mu_sq = n_t @ np.square(mu) / data.n_cells  # z's within-type variance is mean(z^2) - mu_sq
    poisson = (1.0 / scale) @ onehot @ mu / data.n_cells
    excess = np.square(z, out=z).mean(axis=0) - mu_sq - poisson
    disp = np.divide(mu_sq, excess, out=np.full(excess.shape, DISP_RANGE[1]),
                     where=excess > 0)
    return NbSignatureModel(
        raw_mu=positive_inv(np.maximum(mu, SIG_FLOOR)),
        batch_effect=np.zeros((data.n_batches, data.n_genes)),
        raw_cell_scale=positive_inv(scale),
        raw_dispersion=positive_inv(np.clip(disp, *DISP_RANGE)),
    )


def _repin_cell_scales(model: NbSignatureModel):
    # divide l by its mean and absorb the factor into mu; loss is unchanged
    l = model.cell_scale
    s = float(l.mean())
    model.raw_cell_scale[...] = positive_inv(np.maximum(l / s, 2 * POSITIVE_FLOOR))
    model.raw_mu[...] = positive_inv(np.maximum(model.mu * s, 2 * POSITIVE_FLOOR))


def fit_signatures(data: ScDataset, epochs: int, *, lr: float) -> NbSignatureModel:
    """Fit the signature model by full-batch MAP gradient descent; the fit
    draws no noise, so it needs no rng."""
    model = _init_signature_model(data)  # its (C, G) temporary goes before the table's
    table = _signature_table(data)
    opt = SgdState(lr=lr, weight_decay=0.0)
    # an entry of a type's or a batch's row sums over the n cells of the
    # group, n/(C*G) of the table; a cell's entries are 1/C of it, a gene's 1/G
    entries = data.n_cells * data.n_genes
    per_type = np.bincount(data.cell_type, minlength=data.n_types)
    per_batch = np.bincount(data.batch, minlength=data.n_batches)
    scales = (entries / per_type[:, None], entries / per_batch[:, None],
              data.n_cells, data.n_genes)

    def batches(epoch):
        loss, grads = signature_loss(model, data, table)
        yield loss, _scaled_step(opt, grads, scales, lr, epoch, epochs)
        _repin_cell_scales(model)

    model.fit_trace = descend(opt, model.param_arrays(), epochs, batches, "signature fit")
    return model


# ---------------------------------------------------------------------------
# Deconvolution (mean-field log-normal VI)
# ---------------------------------------------------------------------------


def _kl_std_normal(loc, logstd):
    # KL(N(loc, e^{2 logstd}) || N(0,1)), also the log-normal KL via exp bijection
    var = np.exp(2.0 * logstd)
    return -logstd + 0.5 * (var + loc**2) - 0.5


def deconv_loss(params: dict, y: np.ndarray, m_panel: np.ndarray,
                eps_w: np.ndarray, eps_d: np.ndarray,
                table: _CountTable | None = None):
    """One-sample reparameterized negative ELBO and exact gradients.

    params: w_loc (S,T), w_logstd (S,T), d_loc (S,), d_logstd (S,), raw_alpha (G,).
    ``table`` is ``_count_table(y)``; deconvolve builds it once per fit, and a
    call without it builds its own.
    """
    if table is None:
        table = _count_table(y, "spot counts")
    s_n, g_n = table.x.shape
    scale = 1.0 / (s_n * g_n)

    sd_w = np.exp(params["w_logstd"])
    sd_d = np.exp(params["d_logstd"])
    z_w = params["w_loc"] + sd_w * eps_w
    z_d = params["d_loc"] + sd_d * eps_d
    w = np.exp(z_w)  # (S, T)
    d = np.exp(z_d)  # (S,)
    alpha = positive(params["raw_alpha"])  # (G,)

    rate = np.matmul(w, m_panel.T, out=table.scratch[2])  # (S, G) base
    rate *= d[:, None]
    if not (rate.min() > 0 and rate.max() < np.inf):
        raise NumericError("deconvolution produced invalid rates")
    ll, s_mat, d_ll_d_alpha = _nb_terms(table, rate, alpha)  # s_mat = dll/drate
    kl = float(np.sum(_kl_std_normal(params["w_loc"], params["w_logstd"])))
    kl += float(np.sum(_kl_std_normal(params["d_loc"], params["d_logstd"])))
    loss = -scale * (ll - kl)

    # rate = d * (w @ M^T), so both chains run through the (S, T) s_mat @ M
    s_m = s_mat @ m_panel
    d_ll_d_w = d[:, None] * s_m  # (S, T)
    d_ll_d_d = np.sum(w * s_m, axis=1)  # (S,)

    grads = {
        "w_loc": -scale * (d_ll_d_w * w - params["w_loc"]),
        "w_logstd": -scale * (d_ll_d_w * w * eps_w * sd_w - (sd_w**2 - 1.0)),
        "d_loc": -scale * (d_ll_d_d * d - params["d_loc"]),
        "d_logstd": -scale * (d_ll_d_d * d * eps_d * sd_d - (sd_d**2 - 1.0)),
        "raw_alpha": -scale * d_ll_d_alpha * positive_grad(params["raw_alpha"]),
    }
    return loss, grads


def _initial_params(table: _CountTable, m_panel: np.ndarray) -> dict:
    """The deconvolution posterior's start, from the closed-form Poisson fit.

    The detection efficiency starts at d0, which matches each spot's total
    count under a uniform mix. The abundances a = d0 * w take START_STEPS
    multiplicative Poisson updates with the panel M fixed (Lee & Seung 2001),
    a <- a * ((y / a Mᵀ) M) / (1ᵀ M), from a = d0, floored at START_FLOOR * d0
    so that an all-zero spot neither reaches 0 nor divides 0 by 0; w_loc is
    then log(a / d0). The (S, G) ratio lives in the table's scratch array 2.
    """
    y = table.x
    s_n, g_n = y.shape
    t_n = m_panel.shape[1]
    d0 = np.maximum(y.sum(axis=1), 1.0) / float(m_panel.sum())
    floor = START_FLOOR * d0[:, None]
    col_sums = m_panel.sum(axis=0)
    a = np.repeat(d0[:, None], t_n, axis=1)
    ratio = table.scratch[2]
    for _ in range(START_STEPS):
        np.matmul(a, m_panel.T, out=ratio)
        np.divide(y, ratio, out=ratio)
        a *= ratio @ m_panel
        a /= col_sums
        np.maximum(a, floor, out=a)
    return {
        "w_loc": np.log(a / d0[:, None]),
        "w_logstd": np.full((s_n, t_n), -2.0),
        "d_loc": np.log(d0),
        "d_logstd": np.full(s_n, -2.0),
        "raw_alpha": np.full(g_n, float(positive_inv(1.0))),
    }


def deconvolve(st_counts, m_panel: np.ndarray, epochs: int, rng: Rng,
               lr: float) -> DeconvPosterior:
    """Fit per-spot abundance posteriors against a fixed signature panel,
    from the closed-form start of _initial_params."""
    table = _count_table(st_counts, "spot counts")
    y = table.x
    m_panel = as_matrix(m_panel)
    if y.size == 0:
        raise InputError(f"spot counts are empty: {y.shape[0]} spots, "
                         f"{y.shape[1]} genes")
    if y.shape[1] != m_panel.shape[0]:
        raise InputError(
            f"panel mismatch: counts have {y.shape[1]} genes, signatures {m_panel.shape[0]}"
        )
    if np.any(m_panel <= 0):
        raise InputError("signature panel must be strictly positive")
    s_n, t_n = y.shape[0], m_panel.shape[1]
    params = _initial_params(table, m_panel)
    # every group but the shared dispersion belongs to one spot: 1/S of the table
    scales = [1 if k == "raw_alpha" else s_n for k in params]
    opt = SgdState(lr=lr, weight_decay=0.0)
    noise = rng.child("deconv-noise")

    def batches(step):
        eps_w = noise.child("w", step).standard_normal((s_n, t_n))
        eps_d = noise.child("d", step).standard_normal(s_n)
        loss, grads = deconv_loss(params, y, m_panel, eps_w, eps_d, table)
        yield loss, _scaled_step(opt, [grads[k] for k in params], scales, lr, step, epochs)

    trace = descend(opt, list(params.values()), epochs, batches, "deconvolution")
    sd_w = np.exp(params["w_logstd"])
    return DeconvPosterior(
        w_mean=np.exp(params["w_loc"] + 0.5 * sd_w**2),
        w_q05=np.exp(params["w_loc"] + sd_w * PRIOR_Z05),
        fit_trace=trace,
    )


# ---------------------------------------------------------------------------
# Panel selection and gating
# ---------------------------------------------------------------------------


def select_panel(all_genes: list[str], target_genes: list[str], k: int,
                 rng: Rng) -> list[str]:
    """Sample k non-target genes for deconvolution, deterministic per seed."""
    if k < 0:
        raise InputError("panel size must be non-negative")
    targets = set(target_genes)
    candidates = sorted(g for g in all_genes if g not in targets)
    if len(candidates) < k:
        raise InputError(
            f"need {k} non-target genes, only {len(candidates)} available"
        )
    if k == 0:
        return []
    order = rng.child("panel").permutation(len(candidates))
    chosen = [candidates[i] for i in order[:k]]
    return sorted(chosen)


def build_gating(post: DeconvPosterior, cell_counts) -> np.ndarray:
    """The (S, T) gating signal, per-spot estimated cell counts by type:
    g_st = n_s * normalized 5% quantile row; rows sum to n_s."""
    n = np.asarray(cell_counts, dtype=np.float64)
    if n.ndim != 1 or n.shape[0] != post.w_q05.shape[0]:
        raise InputError("cell_counts must have one entry per spot")
    if np.any(n < 0):
        raise InputError("cell counts must be non-negative")
    if np.any(~np.isfinite(n)):
        raise InputError("cell counts must be finite")
    return n[:, None] * post.q05_normalized()
