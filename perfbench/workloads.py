"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every op goes through ``degenctrl.cli.run``, the function behind the
``degenctrl`` command, called in-process. A workload writes its config
files once per run (``gram-ladder`` once per op), runs one op into a
fresh output directory, and checks what the op wrote. ``check`` returns
a list of problems; an empty list means the op passed.
"""

import hashlib
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"
DEFAULT_SEED = 1

# a frozen value matches when within this relative distance
REF_RTOL = 1e-6
GRAM_RTOL = 1e-8
# numbers at or below this size are round-off level (residuals, gaps);
# the references hold them under a ceiling rather than to a value
ROUNDOFF = 1e-6


class ProgramMissing(RuntimeError):
    """The checkout holds no degenctrl sources to measure."""


def load_cli():
    """Import ``degenctrl.cli`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "degenctrl" / "__init__.py").is_file():
        raise ProgramMissing(f"no degenctrl package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import degenctrl
    import degenctrl.cli as cli
    if Path(degenctrl.__file__).resolve().parent != SRC / "degenctrl":
        raise ProgramMissing(f"degenctrl imported from {degenctrl.__file__}")
    return cli


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, sort_keys=True))
    return str(path)


def _manifest_problems(tag: str, code: int, out: Path):
    """Exit code, manifest status and artifact hashes of one command."""
    if code != 0:
        return [f"{tag}: exit code {code}"], {}
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{tag}: unreadable manifest ({exc})"], {}
    problems = []
    if manifest.get("status") != "ok":
        problems.append(f"{tag}: manifest status {manifest.get('status')!r}")
    hashes = {}
    for entry in manifest.get("artifacts", []):
        path = out / entry["name"]
        if not path.is_file():
            problems.append(f"{tag}: listed artifact {entry['name']} missing")
            continue
        if sha256(path) != entry["sha256"]:
            problems.append(f"{tag}: sha256 mismatch for {entry['name']}")
        hashes[f"{tag}/{entry['name']}"] = entry["sha256"]
    written = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    if written != {e["name"] for e in manifest.get("artifacts", [])}:
        problems.append(f"{tag}: manifest does not list exactly the files written")
    return problems, hashes


def _numbers(path: Path) -> dict:
    """Numeric content of an artifact grouped by CSV column or JSON key path."""
    groups = {}
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            for key, cell in zip(header, line.split(",")):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                groups.setdefault(key, []).append(value)
        return groups

    def walk(obj, key):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(obj, list):
            for v in obj:
                walk(v, key)
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            groups.setdefault(key, []).append(float(obj))

    walk(json.loads(path.read_text()), "")
    return groups


def fingerprint(path: Path) -> dict:
    """Per group: [count, sum of |x|, max |x|]."""
    return {key: [len(vals), math.fsum(abs(v) for v in vals),
                  max(abs(v) for v in vals)]
            for key, vals in sorted(_numbers(path).items())}


def compare_fingerprints(tag: str, got: dict, want: dict):
    problems = []
    if set(got) != set(want):
        return [f"{tag}: numeric groups {sorted(got)} != {sorted(want)}"]
    for key, (n_want, sum_want, max_want) in want.items():
        n_got, sum_got, max_got = got[key]
        if n_got != n_want:
            problems.append(f"{tag}:{key}: {n_got} numbers, reference {n_want}")
        elif max_want <= ROUNDOFF:
            if max_got > ROUNDOFF:
                problems.append(f"{tag}:{key}: max {max_got:.3e} above "
                                f"round-off ceiling {ROUNDOFF:.0e}")
        elif (abs(sum_got - sum_want) > REF_RTOL * sum_want
              or abs(max_got - max_want) > REF_RTOL * max_want):
            problems.append(f"{tag}:{key}: sum|x| {sum_got!r} max|x| "
                            f"{max_got!r}, reference {sum_want!r} {max_want!r}")
    return problems


def _rel_far(got: float, want: float, rtol: float) -> bool:
    return not abs(got - want) <= rtol * abs(want)


class Workload:
    """One op repeated in a closed loop; subclasses fill in the details."""

    name = ""
    # every op writes the same bytes, so each op is checked against the first
    same_inputs_each_op = True

    def __init__(self, cli, seed: int, root: Path):
        self.cli = cli
        self.seed = seed
        self.root = root
        self.first_hashes = None
        self.reference_checked = False

    def commands(self, index: int):
        """(command, config path) pairs that make op number ``index``."""
        raise NotImplementedError

    def run(self, index: int, out: Path):
        """Run op ``index`` into ``out``; returns [(command, exit code, dir)]."""
        done = []
        for command, config in self.commands(index):
            target = out / command
            code = self.cli.run(command, config, str(target), self.seed)
            done.append((command, code, target))
        return done

    def check(self, index: int, done) -> list:
        problems, hashes = [], {}
        for command, code, out in done:
            p, h = _manifest_problems(command, code, out)
            problems += p
            hashes.update(h)
        if problems:
            return problems
        problems += self.check_outputs(index, {c: o for c, _, o in done})
        if self.same_inputs_each_op:
            if self.first_hashes is None:
                self.first_hashes = hashes
            elif hashes != self.first_hashes:
                changed = sorted(k for k in hashes
                                 if hashes[k] != self.first_hashes.get(k))
                problems.append("artifacts differ from the first op: "
                                + ", ".join(changed or sorted(hashes)))
        if self.seed == DEFAULT_SEED and not self.reference_checked:
            self.reference_checked = True
            problems += self.check_reference(done)
        return problems

    def check_reference(self, done) -> list:
        """Compare one op with the fingerprints frozen at the default seed."""
        want = load_references()["default_seed"][self.name]
        got = self.freeze(done)
        if set(got) != set(want):
            return [f"artifacts {sorted(got)}, reference {sorted(want)}"]
        return [p for key in sorted(want)
                for p in compare_fingerprints(key, got[key], want[key])]

    def check_outputs(self, index: int, outs: dict) -> list:
        return []

    def freeze(self, done) -> dict:
        """Reference fingerprints of one op's artifacts at the default seed."""
        return {f"{command}/{path.name}": fingerprint(path)
                for command, _, out in done
                for path in sorted(out.iterdir())
                if path.name != "manifest.json"}


_DESK = {"alpha": 0.5, "T_horizon": 1.0, "n_theta_max": 4, "n_r": 60,
         "n_time": 48}
# n_time half steps x (4 n_theta_max + 8) theta nodes x (n_r - 1) radial nodes
HUM_CSV_ROWS = 48 * (4 * 4 + 8) * 59


class HumDesk(Workload):
    """The central solve: Crank-Nicolson marching and CG dominate, and a
    4.2 MB CSV exercises artifact writing; no jacobi."""

    name = "hum-desk"

    def __init__(self, cli, seed, root):
        super().__init__(cli, seed, root)
        band_a = 0.25 + 0.1 * random.Random(seed).random()
        self.config = _write_config(root / "hum.json", dict(
            _DESK, band_a=band_a, band_b=band_a + 0.3, epsilon=1e-6,
            cg_tol=1e-8, initial="desk"))

    def commands(self, index):
        return [("hum", self.config)]

    def check_outputs(self, index, outs):
        out = outs["hum"]
        problems = []
        summary = json.loads((out / "hum_summary.json").read_text())
        if summary["converged"] is not True:
            problems.append("hum: not converged")
        ratio = summary["residual"] / summary["phi0_norm"]
        if not ratio <= 1e-3:
            problems.append(f"hum: residual / phi0_norm {ratio:.3e} > 1e-3")
        rows = (out / "hum_control.csv").read_bytes().count(b"\n") - 1
        if rows != HUM_CSV_ROWS:
            problems.append(f"hum: {rows} CSV rows, expected {HUM_CSV_ROWS}")
        return problems


class GramLadder(Workload):
    """The arbitrary-precision route: restricted Gram up to K=12 and the
    coupled observability form, Jacobi in mpmath; no marching, no CG."""

    name = "gram-ladder"
    same_inputs_each_op = False
    FREQ_CAPS = (0, 4, 8, 12)
    K12_LAMBDA = 1.250739455e-43

    def __init__(self, cli, seed, root):
        super().__init__(cli, seed, root)
        self.rng = random.Random(seed)
        self.intervals = {}

    def commands(self, index):
        c = self.rng.uniform(0.0, 2.0 * math.pi - 1.0)
        c_obs = self.rng.uniform(0.0, 2.0 * math.pi - 0.4)
        self.intervals[index] = (c, c_obs)
        return [
            ("spectral-ineq", _write_config(
                self.root / f"gram-{index}.json", dict(
                    _DESK, freq_caps=list(self.FREQ_CAPS), interval_c=c,
                    interval_d=c + 1.0))),
            ("observability", _write_config(
                self.root / f"obs-{index}.json", dict(
                    _DESK, k_max=6, j_max=2, subspace_k_max=3,
                    theta_c=c_obs, theta_d=c_obs + 0.4))),
        ]

    @staticmethod
    def _rows(path: Path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def check_outputs(self, index, outs):
        problems = []
        c, _ = self.intervals.pop(index)
        ref = load_references()["gram-ladder"]
        gram = self._rows(outs["spectral-ineq"] / "spectral_ineq.csv")
        caps = [int(r["freq_cap"]) for r in gram]
        if caps != list(self.FREQ_CAPS):
            return [f"spectral-ineq: caps {caps}"]
        lam = {int(r["freq_cap"]): float(r["lambda_min"]) for r in gram}
        exact = ((c + 1.0) - c) / (2.0 * math.pi)
        if abs(lam[0] - exact) > 1e-12 * exact:
            problems.append(f"K=0 eigenvalue {lam[0]!r} vs (d-c)/2pi {exact!r}")
        if _rel_far(lam[12], self.K12_LAMBDA, 1e-6):
            problems.append(f"lambda_min(K=12) {lam[12]!r} drifted from "
                            f"{self.K12_LAMBDA!r}")
        for r in gram:
            if not 1.0 <= float(r["c_emp"]) <= 9.0:
                problems.append(f"K={r['freq_cap']}: c_emp {r['c_emp']} "
                                "outside [1, 9]")
        for cap, want in ref["lambda_min"].items():
            if _rel_far(lam[int(cap)], want, GRAM_RTOL):
                problems.append(f"K={cap}: lambda_min {lam[int(cap)]!r} vs "
                                f"frozen {want!r}")
        obs = self._rows(outs["observability"] / "observability.csv")
        for r in obs:
            if not float(r["residual"]) <= 1e-6:
                problems.append(f"{r['cap_type']} {r['j_or_n']}: residual "
                                f"{r['residual']} > 1e-6")
        sub = [float(r["c_emp"]) for r in obs if r["cap_type"] == "subspace"]
        if not all(b > a for a, b in zip(sub, sub[1:])):
            problems.append(f"subspace c_emp does not rise with j: {sub}")
        got = {f"{r['cap_type']}-{r['j_or_n']}": float(r["c_emp"]) for r in obs}
        if set(got) != set(ref["c_emp"]):
            problems.append(f"observability rows {sorted(got)}")
        else:
            for key, want in ref["c_emp"].items():
                if _rel_far(got[key], want, GRAM_RTOL):
                    problems.append(f"{key}: c_emp {got[key]!r} vs frozen "
                                    f"{want!r}")
        return problems

    def check_reference(self, done):
        return []  # the frozen values hold for every seed; see check_outputs

    def freeze(self, done):
        outs = {c: o for c, _, o in done}
        gram = self._rows(outs["spectral-ineq"] / "spectral_ineq.csv")
        obs = self._rows(outs["observability"] / "observability.csv")
        return {
            "lambda_min": {r["freq_cap"]: float(r["lambda_min"]) for r in gram},
            "c_emp": {f"{r['cap_type']}-{r['j_or_n']}": float(r["c_emp"])
                      for r in obs},
        }


# the c14 suite of tests/test_acceptance.py (_BASE14 / _SUITE14), verbatim
_BASE14 = {"alpha": 0.5, "T_horizon": 1.0, "n_theta_max": 2, "n_r": 40,
           "n_time": 32}
SUITE14 = (
    ("spectrum", dict(_BASE14, k_eigen=4)),
    ("hardy", dict(_BASE14, n_samples=50)),
    ("solve", dict(_BASE14, initial_parity="cos", initial_n=1, initial_k=1,
                   snapshot_times=[0.25, 0.75])),
    ("carleman", dict(_BASE14)),
    ("spectral-ineq", dict(_BASE14, freq_caps=[0, 1, 2, 3])),
    ("observability", dict(_BASE14, k_max=4, j_max=1, subspace_k_max=2)),
    ("hum", dict(_BASE14, epsilon=1e-4, cg_tol=1e-6, max_iter=300)),
    ("lr", dict(_BASE14)),
    ("measurable", dict(_BASE14, family_size=6, m_max=16, n_quad=8)),
    ("density-seq", dict(_BASE14)),
)


class CliSuite(Workload):
    """Breadth: all ten commands with the c14 configs, so per-command cli
    overhead is a large share; the only carleman and lr coverage."""

    name = "cli-suite"

    def __init__(self, cli, seed, root):
        super().__init__(cli, seed, root)
        self.configs = [(command, _write_config(root / f"{command}.json", p))
                        for command, p in SUITE14]

    def commands(self, index):
        return self.configs


_BOX_THETA_SHIFT = (-0.5, 2.0 * math.pi - 5.5)


class MeasurableFamily(Workload):
    """The measurable-set pipeline on a 40-datum family: full radial
    spectrum, field_at and field synthesis dominate."""

    name = "measurable-family"

    def __init__(self, cli, seed, root):
        super().__init__(cli, seed, root)
        shift = random.Random(seed).uniform(*_BOX_THETA_SHIFT)
        boxes = [[[h0 + shift, h1 + shift], list(r), list(t)]
                 for (h0, h1), r, t in cli._DEFAULT_BOXES]
        self.config = _write_config(root / "measurable.json", dict(
            alpha=0.5, T_horizon=1.0, n_theta_max=4, n_r=96, n_time=48,
            family_size=40, n_quad=32, boxes=boxes))

    def commands(self, index):
        return [("measurable", self.config)]

    def check_outputs(self, index, outs):
        rep = json.loads((outs["measurable"] / "measurable.json").read_text())
        problems = []
        if rep["sequence_note"] != "ok":
            problems.append(f"sequence_note {rep['sequence_note']!r}")
        excluded = [d["index"] for d in rep["per_datum"] if d["excluded"]]
        if excluded:
            problems.append(f"excluded data {excluded}")
        rho = rep["rho_max"]
        if not (isinstance(rho, float) and math.isfinite(rho) and rho > 0):
            problems.append(f"rho_max {rho!r} not finite and positive")
        return problems


WORKLOADS = {w.name: w for w in (HumDesk, GramLadder, CliSuite,
                                 MeasurableFamily)}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
