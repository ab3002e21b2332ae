"""Benchmark for gnt-eval: three closed-loop workloads, each job run as a user would.

    python3 bench/run.py --workload bridge-cmd --seed 1 --seconds 30 --trace 0

Every repetition spawns a fresh interpreter (`worker.py`) that imports gnt
and makes one in-process `gnt.cli.main` call per job, with the argv a user
would type. Repetitions run one after another until `--seconds` have passed
(at least one, or two with tracing). The program sees only generated files.

Workloads (one client, one batch in flight, CLI defaults: batch 32):
  bridge-cmd      gnt translate --lang es through a `cmd:` backend, full-scale suite
  bridge-http     gnt translate for is, cs and es through a loopback `http:` backend
  evaluate-mixed  gnt run over a seeded is/cs/es translations file with every label

With `--trace 0` the last stdout line reports wall_s, setup_s and peak_rss_mb;
with `--trace 1`, untraced and traced repetitions alternate and it reports the
per-layer metrics. Outputs are checked on every repetition: failed items go
into `failed`, and error_rate = failed / attempted. The exit code is 0 when
every output is correct, 1 when some are not, and 2 when the checkout does
not hold the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from mix import LABELS, LANGUAGES, PAST_LEXICON, LanguageTable, backend_reply, reply_key  # noqa: E402
from tracing import self_times  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
MANIFEST = SRC / "gnt" / "data" / "manifests" / "full_scale.json"
LEXICONS = SRC / "gnt" / "data" / "lexicons"
WORK_ROOT = ROOT / ".bench_work"
SYSTEM = "bench"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170.0
MISSING_SHARE = 0.02  # evaluate-mixed: suite ids left untranslated, per language
ORPHAN_SHARE = 0.01  # evaluate-mixed: extra records whose id is not in the suite
RULES = ("lexicon", "pattern", "phrase", "copy", "unmatched")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> span whose self time it sums (see tracing.TRACE_POINTS).
SPAN_METRICS = {
    "adapter.translate_self_s": "adapter.translate_suite",
    "formats.parse_suite_s": "formats.parse_suite",
    "formats.write_translations_s": "formats.write_translations",
    "formats.parse_translations_s": "formats.parse_translations",
    "formats.write_suite_s": "formats.write_suite",
    "formats.write_scores_s": "formats.write_scores",
    "formats.write_metrics_s": "formats.write_metrics_doc",
    "formats.split_orphans_s": "formats.split_orphans",
    "suite.generate_s": "suite.generate_suite",
    "metrics.build_s": "metrics.build_metrics_doc",
    "report.render_s": "report.render_report",
    "lexicon.load_s": "lexicon.load_language_resources",
    "classify.score_s": "classify.score_suite",
    "pipeline.self_s": "pipeline.run_pipeline",
    "cli.self_s": "cli.main",
}
PER_LAYER = {
    "adapter.batches": "count",
    "adapter.retries": "count",
    "adapter.gap_ms.p50": "ms",
    "adapter.gap_ms.p90": "ms",
    "adapter.bytes_sent": "bytes",
    "adapter.bytes_received": "bytes",
    "adapter.backend_busy_s": "s",
    **{name: "s" for name in SPAN_METRICS},
    "classify.slots": "count",
    "classify.us_per_slot": "us",
    "classify.missing_instances": "count",
    **{f"classify.rule.{rule}": "count" for rule in RULES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict | None]:
    """Records of a JSON-lines file; None stands for a line that is not a JSON object."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            records.append(record if isinstance(record, dict) else None)
    return records


def _coverage(metrics_path: Path) -> dict:
    """The integer counts of a metrics document's coverage section."""
    try:
        coverage = json.loads(metrics_path.read_text(encoding="utf-8"))["coverage"]
    except (ValueError, KeyError, TypeError):
        return {}
    if not isinstance(coverage, dict):
        return {}
    return {key: value for key, value in coverage.items() if isinstance(value, int)}


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GNT_HTTP_TOKEN", None)
    loopback = "127.0.0.1,localhost"
    for key in ("no_proxy", "NO_PROXY"):
        env[key] = f"{env[key]},{loopback}" if env.get(key) else loopback
    return env


@dataclass
class Spawn:
    """One finished worker process."""

    result: dict | None
    setup_s: float | None
    elapsed_s: float


def spawn_worker(work: Path, name: str, jobs: list[list[str]], traced: bool = False) -> Spawn:
    """Run worker.py in a fresh interpreter and wait for it."""
    result_path = work / f"{name}.result.json"
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "result": str(result_path), "trace": traced, "jobs": jobs}))
    with open(work / f"{name}.log", "w", encoding="utf-8") as log:
        started = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, "-I", str(BENCH / "worker.py"), str(spec_path)],
            cwd=work,
            stdout=log,
            stderr=subprocess.STDOUT,
            env=_worker_env(),
        )
    try:
        process.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    except BaseException:  # interrupted: never leave the worker running
        process.kill()
        process.wait()
        raise
    elapsed = time.monotonic() - started
    result = None
    if process.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
        if not Path(result["gnt_file"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"gnt was imported from {result['gnt_file']}, not from {SRC}")
    setup = result["imported"] - started if result else None
    return Spawn(result, setup, elapsed)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Rep:
    traced: bool
    wall_s: float
    peak_rss_mb: float | None
    check: Check
    spans: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    backend_log: list = field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, trace: bool, wrong_replies: bool):
        self.work = work
        self.seed = seed
        self.trace = trace
        self.wrong_replies = wrong_replies
        self.suite_path = work / "suite.jsonl"
        self.tables = {lang: LanguageTable.load(LEXICONS, lang) for lang in LANGUAGES}

    def start(self, suite: list[dict]) -> None:
        """Workload-specific set-up, after the suite has been generated."""

    def jobs(self, rep_dir: Path, traced: bool) -> list[list[str]]:
        raise NotImplementedError

    def backend_log(self, rep_dir: Path) -> list[dict]:
        return []

    def check(self, rep_dir: Path) -> Check:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _Bridge(Workload):
    languages: tuple[str, ...] = ()

    def start(self, suite: list[dict]) -> None:
        self.expected = {
            lang: {row["id"]: backend_reply(self.tables[lang], self.seed, row["id"], row["source_text"]) for row in suite}
            for lang in self.languages
        }

    def adapter(self, lang: str, rep_dir: Path, traced: bool) -> str:
        raise NotImplementedError

    def jobs(self, rep_dir: Path, traced: bool) -> list[list[str]]:
        return [
            ["translate", "--suite", str(self.suite_path), "--adapter", self.adapter(lang, rep_dir, traced),
             "--lang", lang, "--system", SYSTEM, "--out", str(rep_dir / f"translations_{lang}.jsonl")]
            for lang in self.languages
        ]

    def check(self, rep_dir: Path) -> Check:
        """One record per suite id, equal to the backend's reply function."""
        check = Check()
        for lang, expected in self.expected.items():
            check.attempted += len(expected)
            path = rep_dir / f"translations_{lang}.jsonl"
            if not path.exists():
                check.failed += len(expected)
                check.notes.append(f"{lang}: no translations file")
                continue
            seen: dict[str, int] = {}
            wrong = 0
            for record in _jsonl(path):
                record = record or {}
                instance_id = str(record.get("id"))
                seen[instance_id] = seen.get(instance_id, 0) + 1
                if (record.get("system"), record.get("lang")) != (SYSTEM, lang) or record.get("text") != expected.get(instance_id):
                    wrong += 1
            missing = sum(1 for instance_id in expected if instance_id not in seen)
            extra = sum(count - (instance_id in expected) for instance_id, count in seen.items())
            check.failed += min(len(expected), wrong + missing + extra)
            if wrong or missing or extra:
                check.notes.append(f"{lang}: {wrong} wrong, {missing} missing, {extra} extra records")
            check.digests[path.name] = _sha256(path)
        return check


class BridgeCmd(_Bridge):
    name = "bridge-cmd"
    languages = ("es",)

    def adapter(self, lang: str, rep_dir: Path, traced: bool) -> str:
        command = [sys.executable, str(BENCH / "backend.py"), "cmd", "--lexicon-dir", str(LEXICONS),
                   "--lang", lang, "--seed", str(self.seed)]
        if traced:
            command += ["--log", str(rep_dir / "backend.log")]
        if self.wrong_replies:
            command.append("--wrong")
        return "cmd:" + shlex.join(command)

    def backend_log(self, rep_dir: Path) -> list[dict]:
        path = rep_dir / "backend.log"
        return _jsonl(path) if path.exists() else []


class BridgeHttp(_Bridge):
    name = "bridge-http"
    languages = LANGUAGES

    def start(self, suite: list[dict]) -> None:
        super().start(suite)
        command = [sys.executable, str(BENCH / "backend.py"), "serve", "--lexicon-dir", str(LEXICONS),
                   "--seed", str(self.seed)]
        if self.trace:
            command.append("--log")
        if self.wrong_replies:
            command.append("--wrong")
        self.server = subprocess.Popen(command, cwd=self.work, stdout=subprocess.PIPE, text=True)
        port = self.server.stdout.readline().strip()
        if not port.isdigit():
            raise RuntimeError("the HTTP backend did not report its port")
        self.url = f"http://127.0.0.1:{port}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def jobs(self, rep_dir: Path, traced: bool) -> list[list[str]]:
        if traced:
            self.backend_log(rep_dir)  # drop records of earlier repetitions
        return super().jobs(rep_dir, traced)

    def adapter(self, lang: str, rep_dir: Path, traced: bool) -> str:
        return f"{self.url}/{lang}"

    def backend_log(self, rep_dir: Path) -> list[dict]:
        with self._opener.open(f"{self.url}/log", timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()


class EvaluateMixed(Workload):
    name = "evaluate-mixed"

    def start(self, suite: list[dict]) -> None:
        """Write the seeded translations file and remember what it should score as."""
        rng = random.Random(f"{self.seed}\x1f{self.name}")
        self.translations_path = self.work / "translations.jsonl"
        self.intended: dict[str, dict[tuple[str, int], str]] = {}
        self.missing: dict[str, int] = {}
        self.orphans: dict[str, int] = {}
        records = []
        for lang in LANGUAGES:
            table = self.tables[lang]
            intended = self.intended[lang] = {}
            self.missing[lang] = self.orphans[lang] = 0
            for row in suite:
                if rng.random() < MISSING_SHARE:
                    self.missing[lang] += 1
                    continue
                slots = sorted(row["slots"], key=lambda slot: slot["slot_index"])
                key = reply_key(self.seed, lang, row["id"], row["source_text"])
                text, labels = table.render(key, [slot["lemma"] for slot in slots])
                intended.update({(row["id"], slot["slot_index"]): label for slot, label in zip(slots, labels)})
                records.append({"system": SYSTEM, "lang": lang, "id": row["id"], "text": text})
                if rng.random() < ORPHAN_SHARE:
                    self.orphans[lang] += 1
                    orphan_id = f"ORPHAN-{lang}-{self.orphans[lang]:06d}"
                    records.append({"system": SYSTEM, "lang": lang, "id": orphan_id, "text": text})
        _write_jsonl(self.translations_path, records)
        self.records = len(records)

    def jobs(self, rep_dir: Path, traced: bool) -> list[list[str]]:
        return [["run", "--manifest", str(MANIFEST), "--translations", str(self.translations_path),
                 "--lexicon-dir", str(LEXICONS), "--out-dir", str(rep_dir / "out"), "--seed", str(self.seed)]]

    def check(self, rep_dir: Path) -> Check:
        """Every slot scores as intended; coverage counts what was injected."""
        check = Check()
        out = rep_dir / "out"
        counts = {f"classify.rule.{rule}": 0 for rule in RULES}
        counts.update({f"classify.label.{label}": 0 for label in LABELS})
        counts["classify.slots"] = counts["classify.missing_instances"] = 0
        for lang, intended in self.intended.items():
            check.attempted += len(intended)
            scores_path = out / f"scores_{SYSTEM}_{lang}.jsonl"
            metrics_path = out / f"metrics_{SYSTEM}_{lang}.json"
            report_path = out / f"report_{SYSTEM}_{lang}.md"
            if not all(path.exists() for path in (scores_path, metrics_path, report_path)):
                check.failed += len(intended)
                check.notes.append(f"{lang}: outputs missing")
                continue
            found: dict[tuple, str] = {}
            extra = 0
            for score in _jsonl(scores_path):
                score = score or {}
                slot = score.get("slot_index")
                key = (str(score.get("instance_id")), slot if isinstance(slot, int) else None)
                if key in found or key not in intended:
                    extra += 1
                found.setdefault(key, score.get("label"))
                for counter in (f"classify.label.{score.get('label')}",
                                f"classify.rule.{str(score.get('rule', '')).split(':', 1)[0] or 'unmatched'}",
                                "classify.slots"):
                    counts[counter] = counts.get(counter, 0) + 1
            wrong = sum(1 for key, label in intended.items() if found.get(key) != label)
            check.failed += min(len(intended), wrong + extra)
            if wrong or extra:
                check.notes.append(f"{lang}: {wrong} slots not scored as intended, {extra} extra scores")
            coverage = _coverage(metrics_path)
            counts["classify.missing_instances"] += coverage.get("missing_translations", 0)
            for field_name, injected in (("missing_translations", self.missing[lang]),
                                         ("orphan_translations", self.orphans[lang])):
                if coverage.get(field_name) != injected:  # one failed item per wrong count
                    check.failed += 1
                    check.notes.append(f"{lang}: coverage {field_name} {coverage.get(field_name)}, injected {injected}")
            for path in (metrics_path, report_path):
                check.digests[path.name] = _sha256(path)
        check.counts = counts
        return check


WORKLOADS = {cls.name: cls for cls in (BridgeCmd, BridgeHttp, EvaluateMixed)}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "one sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f}..{q3:.4f}"


def run_rep(workload: Workload, index: int, traced: bool) -> tuple[Rep, float | None]:
    """One repetition in a fresh worker; returns it with the worker's set-up time."""
    rep_dir = workload.work / f"rep{index}"
    rep_dir.mkdir()
    spawn = spawn_worker(rep_dir, "worker", workload.jobs(rep_dir, traced), traced)
    result = spawn.result or {"jobs": [], "spans": []}
    errors = [job["error"] for job in result["jobs"] if job["error"]]
    wall = sum(job["end"] - job["start"] for job in result["jobs"]) if spawn.result else spawn.elapsed_s
    log = workload.backend_log(rep_dir) if traced else []
    check = workload.check(rep_dir)
    if spawn.result is None or errors:
        check.failed = check.attempted  # a run that raises fails all of its items
        check.notes.append((errors[0] if errors else "worker failed").strip().splitlines()[-1])
    shutil.rmtree(rep_dir)
    rss = spawn.result["peak_rss_kb"] / 1024 if spawn.result else None
    return Rep(traced, wall, rss, check, result["spans"], result["jobs"], log), spawn.setup_s


def layer_metrics(reps: list[Rep]) -> dict[str, float]:
    """Per-layer metrics: medians over traced repetitions, gaps pooled."""
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    per_rep: list[dict[str, float]] = []
    gaps: list[float] = []
    for rep in traced:
        values = {name: 0.0 for name in PER_LAYER}
        own = self_times([tuple(span) for span in rep.spans])
        for metric, span in SPAN_METRICS.items():
            values[metric] = own.get(span, 0.0)
        values.update(rep.check.counts)
        values["trace.spans"] = len(rep.spans)
        for job in rep.jobs:
            records = sorted((r for r in rep.backend_log if job["start"] <= r["arrival"] <= job["end"]),
                             key=lambda r: r["arrival"])
            batches = len({r["first_id"] for r in records})
            values["adapter.batches"] += batches
            values["adapter.retries"] += len(records) - batches
            values["adapter.bytes_sent"] += sum(r["bytes_in"] for r in records)
            values["adapter.bytes_received"] += sum(r["bytes_out"] for r in records)
            values["adapter.backend_busy_s"] += sum(r["done"] - r["arrival"] for r in records)
            gaps += [(after["arrival"] - before["done"]) * 1000 for before, after in zip(records, records[1:])]
        if values["classify.slots"]:
            values["classify.us_per_slot"] = values["classify.score_s"] / values["classify.slots"] * 1e6
        per_rep.append(values)
    metrics = {name: _median([values[name] for values in per_rep]) for name in PER_LAYER}
    if len(gaps) >= 2:
        quantiles = statistics.quantiles(gaps, n=10)
        metrics["adapter.gap_ms.p50"] = statistics.median(gaps)
        metrics["adapter.gap_ms.p90"] = quantiles[8]
    metrics["trace.overhead_s"] = _median([r.wall_s for r in traced]) - _median([r.wall_s for r in plain])
    return metrics


def benchmark(name: str, seed: int, seconds: float, trace: bool, wrong_replies: bool) -> tuple[dict, list[str]]:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    workload = WORKLOADS[name](work, seed, trace, wrong_replies)
    lines = [f"workload {name}, seed {seed}, {'traced run' if trace else 'untraced run'}"]
    try:
        spawn_worker(work, "warmup", [])  # fills __pycache__; not a sample
        generate = spawn_worker(work, "generate", [["generate", "--manifest", str(MANIFEST), "--seed", str(seed),
                                                     "--out", str(workload.suite_path)]])
        if not workload.suite_path.exists():
            raise RuntimeError("gnt generate did not write the suite")
        setups = [generate.setup_s] + [spawn_worker(work, f"probe{i}", []).setup_s for i in range(SETUP_PROBES)]
        suite = _jsonl(workload.suite_path)
        if None in suite:
            raise RuntimeError("gnt generate wrote a malformed suite")
        workload.start(suite)

        reps: list[Rep] = []
        deadline = time.monotonic() + seconds
        while len(reps) < (2 if trace else 1) or time.monotonic() < deadline:
            rep, setup = run_rep(workload, len(reps), traced=trace and len(reps) % 2 == 1)
            reps.append(rep)
            setups.append(setup)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another benchmark run is still using it
            pass

    setups = [value for value in setups if value is not None]
    attempted = sum(rep.check.attempted for rep in reps)
    failed = sum(rep.check.failed for rep in reps)
    # outputs of one seed must be byte-identical across repetitions
    first = reps[0].check.digests
    for index, rep in enumerate(reps[1:], start=1):
        differing = [file for file, digest in rep.check.digests.items() if first.get(file) != digest]
        if differing:
            failed += len(differing)
            rep.check.notes.append(f"differs from repetition 0: {', '.join(differing)}")

    if trace:
        metrics, units = layer_metrics(reps), PER_LAYER
        lines += [f"{metric:32} {value:.6g} {units[metric]}" for metric, value in metrics.items()]
    else:
        walls = [rep.wall_s for rep in reps]
        rss = [rep.peak_rss_mb for rep in reps if rep.peak_rss_mb is not None]
        metrics, units = {"wall_s": _median(walls), "setup_s": _median(setups), "peak_rss_mb": _median(rss)}, END_TO_END
        lines.append(f"wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)} repetitions, {_quartiles(walls)}")
        lines.append(f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setups)} interpreter spawns, "
                     f"{_quartiles(setups)}")
        lines.append(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  median of {len(rss)} repetitions")
    lines.append(f"error_rate   {failed / attempted if attempted else 1.0:.6g}   "
                 f"{failed} failed of {attempted} items over {len(reps)} repetitions")
    for rep_index, rep in enumerate(reps):
        lines += [f"check failed, repetition {rep_index}: {note}" for note in rep.check.notes]
    lines += [f"sha256 {file} {digest}" for file, digest in sorted(first.items())]
    if isinstance(workload, EvaluateMixed):
        lines.append(f"input: {workload.records} translation records; injected missing {workload.missing}, "
                     f"orphans {workload.orphans}")
        intended = [label for labels in workload.intended.values() for label in labels.values()]
        past = sum(label in PAST_LEXICON for label in intended) / len(intended)
        lines.append("intended labels: " + ", ".join(f"{label} {intended.count(label)}" for label in LABELS)
                     + f"; {past:.1%} of slots past the lexicon rule")
        scored = reps[0].check.counts
        lines.append("scored labels: " + ", ".join(f"{label} {scored.get(f'classify.label.{label}', 0)}"
                                                   for label in LABELS))
        lines.append("scored rules: " + ", ".join(f"{rule} {scored.get(f'classify.rule.{rule}', 0)}" for rule in RULES))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-replies", action="store_true",
                        help="make the backend corrupt one reply per batch (checks the checks)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # run the clean-up below
    missing = [str(path) for path in (SRC / "gnt" / "cli.py", MANIFEST, LEXICONS) if not path.exists()]
    if missing:
        print(f"error: the checkout does not hold the program: {', '.join(missing)}", file=sys.stderr)
        return 2
    result, lines = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.wrong_replies)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
