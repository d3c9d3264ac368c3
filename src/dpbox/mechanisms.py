"""Black-box differential privacy wrappers for tunable approximation algorithms.

A substrate is any algorithm that, handed accuracy knobs (alpha, kappa,
fail_prob), returns a value inside [(1-alpha)f - kappa, (1+alpha)f + kappa]
with probability at least 1 - fail_prob, where f is the true quantity. The
wrappers here re-tune those knobs from the privacy budget, run the substrate
once, and add noise whose scale is a smooth upper bound on local sensitivity
computed from the substrate's own output:

    bound(x) = 4*rho*x + 4*tau + delta_f

wrap_laplace adds Laplace(2*bound/epsilon) and tolerates randomized
substrates at an additive delta cost; wrap_cauchy adds Cauchy(6*bound/epsilon)
and is pure epsilon-DP but requires a deterministic substrate. Everything a
route decides (sampler, scale factor, failure share of delta, refusal of
randomized substrates, rho tuning, accuracy statement, stated privacy) is
one entry of _ROUTES; route_params, the calibration, wrap_trials and
accuracy_interval read it, and nothing else branches on a route's name.
WrapConfig and ApproxParams are frozen, so a request checked once stays
checked. A TunableSubstrate handle keeps the last value of a deterministic
substrate and recalls it while the trials stay on that (dataset, params);
the noise draws are the same either way, since deterministic substrates
draw nothing from the rng. It also keeps the last request a wrapper tuned
for it, per (cfg object, route), so one release only evaluates (or
recalls), calibrates, draws and records.
wrap_trials runs many trials of either wrapper on one rng, and draws the
noise of a deterministic substrate as one vector per chunk of trials.
median_replicas is the one rule by which randomized substrates shrink their
failure probability by replication, and block_medians the one median they
take. to_pure_dp post-processes an (epsilon, delta) output onto a finite grid
so the overall release is pure epsilon-DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from . import noise

__all__ = [
    "ApproxParams",
    "WrapConfig",
    "TunableSubstrate",
    "MechanismTrace",
    "GridSpec",
    "tune_rho_laplace",
    "tune_rho_cauchy",
    "smooth_bound",
    "route_params",
    "wrap_laplace",
    "wrap_cauchy",
    "TRIAL_CHUNK",
    "TrialChunk",
    "wrap_trials",
    "boost_replicas",
    "median_replicas",
    "pure_dp_fallback_prob",
    "to_pure_dp",
    "theorem_main_bounds",
    "lemma_fptas_bounds",
    "accuracy_interval",
]


@dataclass(frozen=True)
class ApproxParams:
    """Accuracy request handed to a substrate.

    alpha is the multiplicative error in [0,1), kappa the additive error in
    the substrate's output units (>= 0), and fail_prob the probability the
    substrate may miss its interval, in [0,1). Frozen: a request checked at
    construction stays checked (dataclasses.replace makes another).
    """

    alpha: float
    kappa: float
    fail_prob: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")
        if not (self.kappa >= 0.0):
            raise ValueError(f"kappa must be nonnegative, got {self.kappa!r}")
        if not (0.0 <= self.fail_prob < 1.0):
            raise ValueError(f"fail_prob must lie in [0, 1), got {self.fail_prob!r}")


@dataclass(frozen=True)
class WrapConfig:
    """Privacy and accuracy targets for one wrapped release.

    epsilon, delta: the privacy budget. alpha, kappa: the end-to-end accuracy
    targets the tuning formulas start from. delta_f: global sensitivity of the
    exact quantity. gamma: tail parameter trading failure probability
    (exp(-gamma)) against noise width. tau_override, when set, replaces the
    default additive request tau = kappa handed to the substrate. Frozen: a
    config checked at construction stays checked, and a handle may recall
    the request it tuned from it (dataclasses.replace makes another).
    """

    epsilon: float
    delta: float
    alpha: float
    kappa: float
    delta_f: float
    gamma: float
    tau_override: Optional[float] = None

    def __post_init__(self):
        for name in ("epsilon", "kappa", "delta_f", "gamma", "tau_override"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")
        if not (self.kappa >= 0.0):
            raise ValueError(f"kappa must be nonnegative, got {self.kappa!r}")
        if not (self.delta_f >= 0.0):
            raise ValueError(f"delta_f must be nonnegative, got {self.delta_f!r}")
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if self.tau_override is not None and not (self.tau_override >= 0.0):
            raise ValueError(f"tau_override must be nonnegative, got {self.tau_override!r}")

    def tau(self) -> float:
        """Additive request handed to the substrate (kappa unless overridden)."""
        return self.kappa if self.tau_override is None else self.tau_override


@dataclass(slots=True)
class MechanismTrace:
    """Diagnostic record of one wrapper invocation.

    For tests and audits only: substrate_value carries unnoised information,
    so releasing a trace next to the output voids the privacy guarantee.
    output == substrate_value + noise_draw always holds, and noise_scale is
    recomputable from (rho, tau, delta_f, substrate_value, epsilon). cost holds
    the resource counters of this one substrate call (e.g. {"queries": 123});
    they depend on the data and are not releasable either.
    """

    substrate_value: float
    rho: float
    tau: float
    noise_scale: float
    noise_draw: float
    output: float
    clamped: bool = False
    cost: dict = field(default_factory=dict)


# The cost of a recalled value; read-only, so every hit can share it.
_CACHED_COST = MappingProxyType({"cached": 1})


class TunableSubstrate:
    """Uniform handle around a tunable approximation algorithm.

    fn(dataset, params, rng) must return the estimate, or (estimate, cost)
    where cost is a dict of the resources that call used (e.g.
    {"queries": 123}). Deterministic substrates ignore the rng, have
    fail_prob 0 by definition, and must say so via is_deterministic.

    The handle keeps the last value a deterministic substrate computed, with
    its dataset and its (alpha, kappa, fail_prob), and recalls it for a call
    on the very same dataset object at equal params. Datasets are immutable
    (Graph, UpdateStream, KnapsackInstance), so the kept value stays the
    value fn would compute. Runs of trials on one dataset therefore evaluate
    it once: wrap_trials, and an audit, which makes all its calls on d and
    then all on d' (audit.estimate_epsilon, dpb audit). A hit costs
    {"cached": 1}, one read-only mapping shared by all hits. Randomized
    substrates run on every call.

    The handle also keeps the last request a wrapper tuned for it: the
    ApproxParams of route_params(self, cfg, route), recalled while the calls
    pass the very same (frozen) cfg object on the same route, so a run of
    releases tunes once. A refusal is never kept; it raises on every call.
    """

    def __init__(self, fn: Callable, is_deterministic: bool = False,
                 label: str = "substrate"):
        self.fn = fn
        self.is_deterministic = bool(is_deterministic)
        self.label = str(label)
        self._last = (None, None, None)  # (dataset, params key, value)
        self._request = (None, None, None)  # (cfg, route, params)

    def evaluate(self, dataset, params: ApproxParams, rng):
        """Run fn once, or recall the last deterministic value; returns
        (estimate, cost of this call)."""
        if self.is_deterministic:
            key = (params.alpha, params.kappa, params.fail_prob)
            last_dataset, last_key, value = self._last
            if last_dataset is dataset and last_key == key:
                return value, _CACHED_COST
        out = self.fn(dataset, params, rng)
        value, cost = out if isinstance(out, tuple) else (out, {})
        value = float(value)
        if self.is_deterministic:
            self._last = (dataset, key, value)
        return value, cost

    def __repr__(self):
        det = "deterministic" if self.is_deterministic else "randomized"
        return f"TunableSubstrate({self.label}, {det})"


def _check_tuning(alpha: float, epsilon: float):
    """The arguments both routes tune rho from: alpha in [0, 1), and epsilon
    positive and finite."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if epsilon == math.inf:
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")


def tune_rho_laplace(alpha: float, epsilon: float, delta: float) -> float:
    """Multiplicative accuracy knob for the Laplace route.

    rho = epsilon * alpha / (12 * ln(4/delta)). With alpha < 1 this keeps
    6*rho within epsilon / (2*ln(4/delta)), the growth budget the smooth
    bound needs for Laplace noise.
    """
    _check_tuning(alpha, epsilon)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return epsilon * alpha / (12.0 * math.log(4.0 / delta))


def tune_rho_cauchy(alpha: float, epsilon: float) -> float:
    """Multiplicative accuracy knob for the Cauchy route.

    rho = epsilon * alpha / 36, which keeps 6*rho within epsilon/6.
    """
    _check_tuning(alpha, epsilon)
    return epsilon * alpha / 36.0


def smooth_bound(x: float, rho: float, tau: float, delta_f: float) -> float:
    """Smooth upper bound on local sensitivity anchored at output value x:

    4*rho*x + 4*tau + delta_f. All arguments must be nonnegative.
    """
    for name, v in (("x", x), ("rho", rho), ("tau", tau), ("delta_f", delta_f)):
        if not (v >= 0.0):
            raise ValueError(f"{name} must be nonnegative, got {v!r}")
    return 4.0 * rho * x + 4.0 * tau + delta_f


class _Laplace:
    """The Laplace route: a release is (epsilon, delta*(1 + e^(epsilon/2)) +
    delta/2)-DP for any substrate that honors its contract, randomized ones
    included, which may fail with probability delta/2. Its accuracy
    statement is theorem_main_bounds, with target 1 - delta - e^-gamma."""

    sampler, scale_factor, fail_share, randomized_refusal = "sample_laplace", 2.0, 0.5, None
    formula = "epsilon*alpha/(12*ln(4/delta)) at epsilon {0!r}, alpha {1!r}, delta {2!r}"

    def tune(cfg):
        return tune_rho_laplace(cfg.alpha, cfg.epsilon, cfg.delta)

    def statement(cfg):
        target = 1.0 - cfg.delta - math.exp(-cfg.gamma)
        if target <= 0.0:
            raise ValueError(
                f"the accuracy statement needs delta + e^-gamma < 1, got delta {cfg.delta!r}"
                f" and gamma {cfg.gamma!r}")
        return (*theorem_main_bounds(cfg), target)


class _Cauchy:
    """The Cauchy route: a release is pure epsilon-DP, which needs a
    deterministic substrate (fail_prob 0). Its accuracy statement is
    lemma_fptas_bounds at the tuned rho and tau, with target 9/10."""

    sampler, scale_factor, fail_share = "sample_cauchy", 6.0, 0.0
    randomized_refusal = "wrap_cauchy requires a deterministic substrate; {0!r} is randomized"
    formula = "epsilon*alpha/36 at epsilon {0!r}, alpha {1!r}"

    def tune(cfg):
        return tune_rho_cauchy(cfg.alpha, cfg.epsilon)

    def statement(cfg):
        return (*lemma_fptas_bounds(_Cauchy.tune(cfg), cfg.tau(), cfg.delta_f, cfg.epsilon,
                                    cfg.gamma), 0.9)


# Route name -> everything the route decides: the noise module's sampler, by
# name, so a sampler patched in noise (as perfbench's tracer does) is the one
# that draws; the multiple of
# bound/epsilon that is the noise scale; the share of delta the substrate may
# fail with; the refusal of a randomized substrate, if any; the rho tuning and
# its formula; and the accuracy statement (mult, add_kappa, additive, target).
_ROUTES = {"laplace": _Laplace, "cauchy": _Cauchy}


def _route(route: str, substrate: Optional[TunableSubstrate] = None):
    """The _ROUTES entry of route. ValueError for an unknown route, and for a
    substrate, when given, that the route refuses."""
    entry = _ROUTES.get(route) if isinstance(route, str) else None
    if entry is None:
        raise ValueError(f"route must be 'laplace' or 'cauchy', got {route!r}")
    if substrate is not None and entry.randomized_refusal and not substrate.is_deterministic:
        raise ValueError(entry.randomized_refusal.format(substrate))
    return entry


def route_params(substrate: TunableSubstrate, cfg: WrapConfig, route: str) -> ApproxParams:
    """The request a route hands its substrate: rho in alpha, tau = cfg.tau()
    in kappa. "laplace" tunes rho = tune_rho_laplace(cfg.alpha, cfg.epsilon,
    cfg.delta) with fail_prob cfg.delta/2; "cauchy" needs a deterministic
    substrate and tunes rho = tune_rho_cauchy(cfg.alpha, cfg.epsilon) with
    fail_prob 0. A tuned rho of 1 or more, which no substrate accepts,
    raises ValueError naming the route's formula and the config's values."""
    entry = _route(route, substrate)
    rho = entry.tune(cfg)
    if rho >= 1.0:
        formula = entry.formula.format(cfg.epsilon, cfg.alpha, cfg.delta)
        raise ValueError(f"the tuned rho = {formula} is {rho!r}; it must be below 1")
    return ApproxParams(alpha=rho, kappa=cfg.tau(), fail_prob=cfg.delta * entry.fail_share)


def _calibrate(value: float, params: ApproxParams, cfg: WrapConfig, entry):
    """(x, clamped, scale): the value that gets noised and the noise scale."""
    if not math.isfinite(value):
        raise ValueError(f"substrate returned a non-finite value: {value!r}")
    # Substrate outputs are clamped at 0 from below before noising; the target
    # quantity is nonnegative, and an abort here would depend on the data.
    clamped = value < 0.0
    x = 0.0 if clamped else float(value)
    # smooth_bound's expression, in its order, without its checks: params and
    # cfg were checked when they were made, and x >= 0.
    bound = 4.0 * params.alpha * x + 4.0 * params.kappa + cfg.delta_f
    return x, clamped, entry.scale_factor * bound / cfg.epsilon


def _wrap(substrate: TunableSubstrate, dataset, cfg: WrapConfig, rng, route: str):
    """(output, trace) of one release of the route's wrapper: tune (or recall
    the handle's last request), evaluate, calibrate, draw."""
    last_cfg, last_route, params = substrate._request
    if last_cfg is not cfg or last_route != route:
        params = route_params(substrate, cfg, route)
        substrate._request = (cfg, route, params)
    entry = _ROUTES[route]
    value, cost = substrate.evaluate(dataset, params, rng)
    x, clamped, scale = _calibrate(value, params, cfg, entry)
    draw = getattr(noise, entry.sampler)(scale, rng)
    trace = MechanismTrace(substrate_value=x, rho=params.alpha, tau=params.kappa,
                           noise_scale=scale, noise_draw=draw, output=x + draw,
                           clamped=clamped, cost=cost)
    return trace.output, trace


def wrap_laplace(substrate: TunableSubstrate, dataset, cfg: WrapConfig, rng):
    """Release the substrate's value plus Laplace noise calibrated to it.

    Invokes the substrate exactly once with params = route_params(substrate,
    cfg, "laplace"), rho = params.alpha and tau = params.kappa, and returns

        x + Laplace(2 * (4*rho*x + 4*tau + delta_f) / epsilon)

    together with a MechanismTrace. When the substrate honors its contract the
    released output is (epsilon, delta*(1 + e^(epsilon/2)) + delta/2)-DP; the
    trace is for testing only and must not be released.
    """
    return _wrap(substrate, dataset, cfg, rng, "laplace")


def wrap_cauchy(substrate: TunableSubstrate, dataset, cfg: WrapConfig, rng):
    """Release the substrate's value plus Cauchy noise calibrated to it.

    Requires a deterministic substrate (fail_prob 0); randomized substrates
    would break the pure-DP argument and are rejected. Tunes
    rho = tune_rho_cauchy(cfg.alpha, cfg.epsilon) and tau = cfg.tau(), and
    returns x + Cauchy(6 * (4*rho*x + 4*tau + delta_f) / epsilon) with a
    trace. The released output is epsilon-DP when the contract holds.
    """
    return _wrap(substrate, dataset, cfg, rng, "cauchy")


# Trials per TrialChunk: bounds the memory of a run whatever its trial count.
TRIAL_CHUNK = 2 ** 16


@dataclass
class TrialChunk:
    """Trials start .. start + len(output) - 1 of one wrap_trials run.

    output, substrate_value, noise_scale and noise_draw are float arrays, one
    entry per trial, with the meaning of the MechanismTrace fields of the same
    names; cost holds each trial's cost dict. rho and tau are the run's tuned
    knobs. Everything but output is diagnostic and not releasable.
    """

    start: int
    output: np.ndarray
    substrate_value: np.ndarray
    noise_scale: np.ndarray
    noise_draw: np.ndarray
    cost: list
    rho: float
    tau: float


def wrap_trials(substrate: TunableSubstrate, dataset, cfg: WrapConfig, route: str, rng,
                trials: int):
    """Yield `trials` releases of the route's wrapper on one rng, in
    TrialChunks of at most TRIAL_CHUNK trials.

    A run equals `trials` sequential wrap_laplace (route "laplace") or
    wrap_cauchy ("cauchy") calls on the same rng, bit for bit. A
    deterministic substrate draws nothing from the rng, so a chunk evaluates
    it once (the memo recalls it after the first chunk) and draws its noise
    as one vector; later trials cost {"cached": 1}, as recalled calls do. A
    randomized substrate is evaluated and noised trial by trial.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials!r}")
    params, entry = route_params(substrate, cfg, route), _ROUTES[route]
    for start in range(0, trials, TRIAL_CHUNK):
        n = min(TRIAL_CHUNK, trials - start)
        if substrate.is_deterministic:
            value, first = substrate.evaluate(dataset, params, rng)
            x, _, scale = _calibrate(value, params, cfg, entry)
            draw = getattr(noise, entry.sampler)(scale, rng, size=n)
            values, scales = np.full(n, x), np.full(n, scale)
            cost = [first] + [_CACHED_COST] * (n - 1)
        else:
            runs = [_wrap(substrate, dataset, cfg, rng, route)[1] for _ in range(n)]
            values = np.array([t.substrate_value for t in runs])
            scales = np.array([t.noise_scale for t in runs])
            draw = np.array([t.noise_draw for t in runs])
            cost = [t.cost for t in runs]
        yield TrialChunk(start=start, output=values + draw, substrate_value=values,
                         noise_scale=scales, noise_draw=draw, cost=cost,
                         rho=params.alpha, tau=params.kappa)


def boost_replicas(target_fail: float) -> int:
    """Replica count the median trick needs to push failure from 1/3 to target_fail.

    r = ceil(18 * ln(2/target_fail)); the constant comes from a Chernoff bound
    for base success 2/3 and is validated empirically in the tests.
    """
    if not (0.0 < target_fail < 1.0):
        raise ValueError(f"target_fail must lie in (0, 1), got {target_fail!r}")
    return int(math.ceil(18.0 * _log_two_over(target_fail)))


def _log_two_over(fail_prob: float) -> float:
    """ln(2/fail_prob), which every replica and sketch row count reads, as
    ln 2 - ln fail_prob: 2/fail_prob overflows below about 1.1e-308."""
    return math.log(2.0) - math.log(fail_prob)


def median_replicas(fail_prob: float) -> int:
    """How many runs of a substrate that fails with probability at most 1/3
    the median needs to fail with probability at most fail_prob: one run when
    fail_prob >= 1/3, else boost_replicas(fail_prob)."""
    return 1 if fail_prob >= 1.0 / 3.0 else boost_replicas(fail_prob)


def _check_accuracy(alpha: float, fail_prob: float):
    """An estimator's accuracy request: alpha and fail_prob in (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (0.0 < fail_prob < 1.0):
        raise ValueError(f"fail_prob must lie in (0, 1), got {fail_prob!r}")


def block_medians(values: np.ndarray, block: int) -> np.ndarray:
    """The median of each run of `block` consecutive values, bit for bit as
    np.median computes it (the middle value, or the mean of the middle two)."""
    v = np.sort(values.reshape(-1, block), axis=1)
    mid = block // 2
    return v[:, mid] if block % 2 else (v[:, mid - 1] + v[:, mid]) / 2


@dataclass
class GridSpec:
    """Rounding grid for the approximate-to-pure post-processing step.

    range_max is an a-priori upper bound on the mechanism's output and spacing
    the grid pitch; the grid points are {0, spacing, ..., floor(M/g)*g}, and
    num_points = floor(M/g) + 1 is derived, never passed, and at most 2^63 - 1,
    so that a fallback draw fits numpy's int64 range.
    """

    range_max: float
    spacing: float
    num_points: int = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.range_max) and self.range_max > 0.0):
            raise ValueError(f"range_max must be a positive real, got {self.range_max!r}")
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError(f"spacing must be positive, got {self.spacing!r}")
        last = self.range_max / self.spacing + 1e-9
        if not (math.isfinite(last) and math.floor(last) < 2 ** 63 - 1):
            raise ValueError(f"a grid of range_max {self.range_max!r} and spacing "
                             f"{self.spacing!r} has more than 2^63 - 1 points")
        self.num_points = math.floor(last) + 1

    def point(self, i: int) -> float:
        return i * self.spacing


def pure_dp_fallback_prob(epsilon: float, delta: float, num_points: int) -> float:
    """Resample probability p = delta*|R| / (e^epsilon - 1 + delta*|R|).

    Mixing a uniformly random grid point in with this probability converts an
    upstream (epsilon, delta) guarantee over the grid into pure epsilon-DP;
    p satisfies delta = (e^epsilon - 1) * p / (|R| * (1 - p)) with equality.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must lie in [0, 1), got {delta!r}")
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points!r}")
    dr = delta * num_points
    return dr / (math.expm1(epsilon) + dr)


def to_pure_dp(value: float, grid: GridSpec, epsilon: float, delta: float, rng,
               trace: Optional[dict] = None) -> float:
    """Round a private output up onto the grid, occasionally resampling uniformly.

    Clamps value into [0, range_max], rounds up to the nearest grid point, and
    with probability pure_dp_fallback_prob(...) replaces the result with a
    uniformly random grid point. |returned - value| <= spacing unless the
    fallback fired. delta = 0 gives deterministic rounding. Pass a dict as
    trace to capture the {"clamped", "fallback"} flags.
    """
    p = pure_dp_fallback_prob(epsilon, delta, grid.num_points)
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"value must be finite, got {value!r}")
    clamped_neg = v < 0.0
    v = min(max(v, 0.0), grid.range_max)
    idx = int(math.ceil(v / grid.spacing - 1e-9))
    if idx > grid.num_points - 1:
        idx = grid.num_points - 1
    fallback = False
    if p > 0.0 and rng.random() < p:
        idx = int(rng.integers(grid.num_points))
        fallback = True
    if trace is not None:
        trace["clamped"] = clamped_neg
        trace["fallback"] = fallback
    return idx * grid.spacing


def theorem_main_bounds(cfg: WrapConfig):
    """Accuracy interval half-widths for the Laplace route.

    Returns (alpha_prime, kappa_prime, additive) with

        alpha_prime = alpha * (epsilon + 16*gamma) / (12 * ln(4/delta))
        kappa_prime = kappa * (2*gamma*alpha / (3*ln(4/delta)) + 8*gamma/epsilon + 1)
        additive    = 2 * delta_f * gamma / epsilon

    With probability at least 1 - delta - exp(-gamma) the wrapped output lies
    inside [(1-a')f - k' - additive, (1+a')f + k' + additive].
    """
    big_l = math.log(4.0 / cfg.delta)
    alpha_prime = cfg.alpha * (cfg.epsilon + 16.0 * cfg.gamma) / (12.0 * big_l)
    kappa_prime = cfg.kappa * (2.0 * cfg.gamma * cfg.alpha / (3.0 * big_l)
                               + 8.0 * cfg.gamma / cfg.epsilon + 1.0)
    additive = 2.0 * cfg.delta_f * cfg.gamma / cfg.epsilon
    return alpha_prime, kappa_prime, additive


def lemma_fptas_bounds(rho: float, tau: float, delta_f: float, epsilon: float,
                       gamma: float):
    """Accuracy interval for the Cauchy route, valid for gamma >= 6.5.

    Returns (mult, add_kappa, add_sens) with

        mult      = rho * (1 + 48*gamma/epsilon)
        add_kappa = 24 * (rho + 1) * gamma * tau / epsilon
        add_sens  = 6 * delta_f * gamma / epsilon

    With probability at least 9/10 the wrapped output lies inside
    [(1-mult)f - add_kappa - add_sens, (1+mult)f + add_kappa + add_sens].
    gamma below 6.5 leaves the Cauchy tail above 1/10 and is rejected.
    """
    for name, v in (("rho", rho), ("tau", tau), ("delta_f", delta_f)):
        if not (v >= 0.0):
            raise ValueError(f"{name} must be nonnegative, got {v!r}")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not (gamma >= 6.5):
        raise ValueError(
            f"gamma must be at least 6.5 so the tail stays below 1/10, got {gamma!r}")
    mult = rho * (1.0 + 48.0 * gamma / epsilon)
    add_kappa = 24.0 * (rho + 1.0) * gamma * tau / epsilon
    add_sens = 6.0 * delta_f * gamma / epsilon
    return mult, add_kappa, add_sens


def accuracy_interval(exact: float, cfg: WrapConfig, route: str):
    """(lo, hi, target): the interval the route's release of a substrate whose
    true value is exact lands in with probability at least target.

    "laplace" uses theorem_main_bounds(cfg), with target 1 - delta - e^-gamma;
    a config where that target is not positive promises nothing and raises
    ValueError. "cauchy" uses lemma_fptas_bounds at the rho and tau the route
    tunes, with target 9/10.
    """
    mult, add_kappa, additive, target = _route(route).statement(cfg)
    lo = (1.0 - mult) * exact - add_kappa - additive
    hi = (1.0 + mult) * exact + add_kappa + additive
    return lo, hi, target
