"""Release acceptance checks.

Each test covers one release criterion and prints exactly one verdict line
of the form `[acceptance] <name>: PASS|FAIL (<detail>)`. Verdicts suspend
pytest's output capture so they reach the console either way. A FAIL
verdict is followed by a failing assert; the checks state what the toolkit
is required to do and are never weakened to match what it happens to do.
"""

import random
import re
import sys
import time

import pytest

from affsim import (
    BandwidthProfile,
    EstimatorConfig,
    FairnessConfig,
    SimConfig,
    ewma_update,
    run_fairness,
    run_session,
    sliding_mean_update,
    synthesize_profile,
)
from affsim.cli import main as cli_main
from affsim.estimators import aff_update
from affsim.report import summarize

# Pre-build oracle constants for the step response (2000 kbps for 20
# samples, then 600 kbps): first post-step update, counting from 1, whose
# estimate lands within 10% of 600, and the update at which the adaptive
# factor first touches its 0.6 floor.
ORACLE_AFF_SETTLE = 12
ORACLE_EWMA_SETTLE = 15
ORACLE_AFF_CLAMP_AT = 1


def _verdict(cap, name, ok, detail=""):
    line = "[acceptance] %s: %s" % (name, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    with cap.disabled():
        print(line, file=sys.stderr, flush=True)


def _aff_estimates(samples, **kwargs):
    state = EstimatorConfig(**kwargs).initial_state
    out = []
    for x in samples:
        state, est = aff_update(state, x)
        out.append(est)
    return state, out


def _pinned_aff_estimate(samples, factor):
    # hold the forgetting factor constant through the whole sequence so the
    # final estimate is a clean function of that one factor
    state = EstimatorConfig(forgetting_min=1e-9).initial_state._replace(
        forgetting=factor)
    value = None
    for x in samples:
        state, est = aff_update(state, x)
        state = state._replace(forgetting=factor)
        value = est
    return state, value


def _settle_count(estimates, target, tolerance=0.10):
    for i, est in enumerate(estimates, start=1):
        if abs(est - target) <= tolerance * target:
            return i
    return None


class TestEstimatorOracles:
    def test_estimator_oracle_suite(self, capfd):
        t0 = time.perf_counter()
        problems = []

        rng = random.Random(1001)
        for _ in range(1000):
            c = rng.uniform(1.0, 1e5)
            state, estimates = _aff_estimates([c] * rng.randint(2, 30))
            if state.forgetting != 1.0:
                problems.append("factor drifted off 1.0 at constant %r" % c)
                break
            if any(est != pytest.approx(c, rel=1e-12) for est in estimates):
                problems.append("constant %r not reproduced" % c)
                break

        rng = random.Random(77)
        eps = 1e-6
        for _ in range(200):
            n = rng.randint(2, 50)
            samples = [rng.uniform(500.0, 5000.0) for _ in range(n)]
            factor = rng.uniform(0.65, 0.99)
            state, _ = _pinned_aff_estimate(samples, factor)
            analytic = (state.sum_grad * state.weight
                        - state.weight_grad * state.weighted_sum) \
                / (state.weight * state.weight)
            _, hi = _pinned_aff_estimate(samples, factor + eps)
            _, lo = _pinned_aff_estimate(samples, factor - eps)
            numeric = (hi - lo) / (2.0 * eps)
            scale = max(abs(analytic), abs(numeric), 1e-9)
            if abs(analytic - numeric) / scale > 1e-4:
                problems.append(
                    "gradient mismatch: analytic %r vs numeric %r"
                    % (analytic, numeric))
                break

        rng = random.Random(42)
        alpha = 0.2
        for _ in range(200):
            samples = [rng.uniform(100.0, 9000.0)
                       for _ in range(rng.randint(1, 40))]
            state = EstimatorConfig(kind="ewma",
                                    ewma_weight=alpha).initial_state
            got = None
            for x in samples:
                state, est = ewma_update(state, x)
                got = est
            n = len(samples)
            closed = (1.0 - alpha) ** (n - 1) * samples[0] + alpha * sum(
                (1.0 - alpha) ** (n - i) * samples[i - 1]
                for i in range(2, n + 1))
            if got != pytest.approx(closed, rel=1e-12):
                problems.append("ewma closed form mismatch")
                break

        rng = random.Random(7)
        for _ in range(200):
            window = rng.randint(1, 6)
            samples = [rng.uniform(100.0, 9000.0)
                       for _ in range(rng.randint(1, 30))]
            state = EstimatorConfig(kind="sliding_mean",
                                    window=window).initial_state
            for i, x in enumerate(samples):
                state, est = sliding_mean_update(state, x)
                tail = samples[max(0, i + 1 - window):i + 1]
                if est != sum(tail) / len(tail):
                    problems.append("sliding mean mismatch")
                    break

        elapsed = time.perf_counter() - t0
        if elapsed >= 5.0:
            problems.append("took %.2f s, budget 5 s" % elapsed)
        ok = not problems
        _verdict(capfd, "estimator oracle suite", ok,
                 problems[0] if problems else "%.2f s" % elapsed)
        assert ok, problems


class TestStepResponse:
    def test_step_response_ordering(self, capfd):
        samples = [2000.0] * 20 + [600.0] * 40

        state = EstimatorConfig().initial_state
        aff_estimates = []
        clamp_at = None
        for i, x in enumerate(samples):
            state, est = aff_update(state, x)
            if i >= 20:
                aff_estimates.append(est)
                if clamp_at is None and state.forgetting == 0.6:
                    clamp_at = i - 20 + 1

        e_state = EstimatorConfig(kind="ewma", ewma_weight=0.2).initial_state
        ewma_estimates = []
        for i, x in enumerate(samples):
            e_state, est = ewma_update(e_state, x)
            if i >= 20:
                ewma_estimates.append(est)

        aff_n = _settle_count(aff_estimates, 600.0)
        ewma_n = _settle_count(ewma_estimates, 600.0)
        ok = (aff_n is not None and ewma_n is not None
              and aff_n <= ewma_n
              and aff_n <= ORACLE_AFF_SETTLE
              and ewma_n <= ORACLE_EWMA_SETTLE
              and clamp_at is not None
              and clamp_at <= ORACLE_AFF_CLAMP_AT)
        _verdict(capfd, "step response ordering", ok,
                 "aff settles in %s <= ewma in %s (budgets %d, %d); "
                 "factor clamps at update %s (budget %d)"
                 % (aff_n, ewma_n, ORACLE_AFF_SETTLE, ORACLE_EWMA_SETTLE,
                    clamp_at, ORACLE_AFF_CLAMP_AT))
        assert ok


class TestFairnessReproduction:
    def test_shared_link_fairness(self, capfd):
        t0 = time.perf_counter()
        seeds = range(10)
        jfis = {}
        bounds_ok = True
        for seed in seeds:
            result = run_fairness(FairnessConfig(rng_seed=seed))
            jfis[seed] = result.jfi
            bounds_ok &= all(800.0 <= v <= 1600.0
                             for v in result.per_client_avg_kbps)
        elapsed = time.perf_counter() - t0

        low = {seed: jfi for seed, jfi in jfis.items() if jfi < 0.99}
        time_ok = elapsed < 30.0
        ok = not low and bounds_ok and time_ok
        detail = "min jfi %.6f, %.1f s" % (min(jfis.values()), elapsed)
        if low:
            detail += "; seeds below 0.99: " + ", ".join(
                "%d=%.6f" % (seed, jfi) for seed, jfi in sorted(low.items()))
        if not bounds_ok:
            detail += "; per-client average out of [800, 1600] kbps"
        _verdict(capfd, "shared link fairness", ok, detail)
        assert ok, detail


def _integral_kbit(profile, upto):
    total = 0.0
    bps = profile.breakpoints
    for i, (start, kbps) in enumerate(bps):
        stop = bps[i + 1][0] if i + 1 < len(bps) else profile.duration_s
        stop = min(stop, upto)
        if stop > start:
            total += (stop - start) * kbps
    return total


def _random_profile(rng):
    times = [0.0]
    for _ in range(rng.randint(0, 7)):
        times.append(times[-1] + rng.uniform(2.0, 60.0))
    return BandwidthProfile(
        tuple((t, rng.uniform(150.0, 4000.0)) for t in times), 1e7)


def _random_config(rng):
    kind = rng.choice(("aff", "ewma", "sliding_mean"))
    return SimConfig(
        estimator=EstimatorConfig(kind=kind),
        max_buffer_s=rng.uniform(12.0, 40.0),
        total_segments=rng.randint(5, 40))


class TestSimulatorAccounting:
    def test_simulator_accounting(self, capfd):
        rng = random.Random(2024)
        problems = []
        for case in range(500):
            profile = _random_profile(rng)
            cfg = _random_config(rng)
            trace = run_session(profile, cfg)

            media = len(trace.records) * cfg.ladder.segment_duration_s
            stall_total = sum(d for _, d in trace.stalls)
            identity_gap = abs(trace.wall_time_s - (trace.startup_delay_s
                                                    + media + stall_total))
            if identity_gap > 1e-9:
                problems.append("case %d: wall identity off by %g"
                                % (case, identity_gap))

            cap = cfg.max_buffer_s + 1e-9
            levels = [r.buffer_after_s for r in trace.records]
            levels += [level for _, level in trace.buffer_series]
            if any(level < -1e-9 or level > cap for level in levels):
                problems.append("case %d: buffer out of bounds" % case)

            moved = sum(r.size_kbit for r in trace.records)
            available = _integral_kbit(
                profile, trace.records[-1].t_complete_s)
            if moved > available + 1e-6:
                problems.append("case %d: conservation violated" % case)

            if run_session(profile, cfg) != trace:
                problems.append("case %d: nondeterministic" % case)
            if problems:
                break
        ok = not problems
        _verdict(capfd, "simulator accounting", ok,
                 problems[0] if problems else "500 random cases")
        assert ok, problems


class TestComparisonOrderings:
    def test_estimator_comparison_orderings(self, capfd):
        kinds = {"aff": "aff", "ewma": "ewma", "avg3": "sliding_mean"}
        changes_wins = 0
        mean_wins = 0
        for seed in range(10):
            profile = synthesize_profile("test1", seed, 800.0)
            reports = {}
            for label, kind in kinds.items():
                cfg = SimConfig(estimator=EstimatorConfig(kind=kind))
                trace = run_session(profile, cfg)
                reports[label] = summarize(trace, cfg.ladder)
            if reports["aff"].bitrate_changes \
                    < reports["avg3"].bitrate_changes:
                changes_wins += 1
            if reports["aff"].mean_bitrate_kbps \
                    >= reports["ewma"].mean_bitrate_kbps:
                mean_wins += 1

        # 180 two-second segments put the session across the drop halfway
        # through this 600 s trace
        plateau = synthesize_profile("test4", 0, 600.0)
        cfg = SimConfig(estimator=EstimatorConfig(kind="aff"),
                        total_segments=180)
        trace = run_session(plateau, cfg)
        qualities = [r.quality_index for r in trace.records]
        downward = sum(1 for a, b in zip(qualities, qualities[1:]) if b < a)
        plateau_ok = not trace.stalls and downward >= 1

        ok = changes_wins >= 8 and mean_wins >= 8 and plateau_ok
        _verdict(capfd, "estimator comparison orderings", ok,
                 "aff fewer switches than avg3 on %d/10 seeds (need 8), "
                 "aff mean >= ewma mean on %d/10 (need 8); two-plateau run: "
                 "%d stalls, %d downward switches"
                 % (changes_wins, mean_wins, len(trace.stalls), downward))
        assert ok


class TestCliContract:
    def test_cli_contract(self, capsys, tmp_path):
        problems = []

        rc = cli_main(["compare", "--synth", "test1", "--seed", "7"])
        out = capsys.readouterr().out.splitlines()
        row = re.compile(r"^(aff|avg3|ewma)\s+\d+\s+\d+\s+"
                         r"(--|\d+\.\d{2}(, \d+\.\d{2})*)\s+\d+\.\d{2}$")
        if rc != 0:
            problems.append("compare exited %d" % rc)
        elif len(out) != 4 or not all(row.match(line) for line in out[1:]):
            problems.append("compare table malformed: %r" % (out,))
        elif {line.split()[0] for line in out[1:]} != {"aff", "avg3",
                                                       "ewma"}:
            problems.append("compare rows missing a method")

        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,bandwidth_kbps\n0,1000\n5,fast\n")
        rc = cli_main(["stats", "--profile", str(bad)])
        err = capsys.readouterr().err
        if rc == 0:
            problems.append("malformed csv accepted")
        elif not err.startswith("error:") or "line 3" not in err:
            problems.append("parse diagnostic missing line number: %r" % err)

        ok = not problems
        _verdict(capsys, "cli contract", ok,
                 problems[0] if problems else "compare table and parse "
                 "diagnostics verified")
        assert ok, problems
