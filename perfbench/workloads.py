"""The four workloads: inputs from a seed, one timed call, and the checks of its output.

Each workload builds its inputs through `harness.config` and `topology`
(`build`, timed as set-up), then makes repeated timed calls into a public
entry point (`call`).  Right after each call, outside its timed region,
`digest` checks what can be checked per call and reduces the output to a
small record, so that what a run keeps does not grow with the calls' output.
After the last call `checks` turns the records into the run's checks.  The timed call of the three CLI workloads is `cli.main`, exactly as
`islandsis <subcommand> <config>` runs it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from islandsis import micro
from islandsis.harness import cli
from islandsis.harness.config import SUITE_NAMES, ExperimentConfig
from islandsis.harness.trajio import read_trajectory

import verify


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _cli(argv: list[str]) -> int:
    """Run the CLI in-process with its report printing swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    min_calls = 1  # 2 where a statistical check needs two independent samples
    seeds: dict = {}  # how the seed became the inputs, recorded with the results

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def build(self) -> None:
        raise NotImplementedError

    def call(self, index: int) -> dict:
        raise NotImplementedError

    def digest(self, index: int, output: dict, kept: dict) -> dict:
        """The record kept of one call's output.

        `kept` holds the arguments of the boundaries marked `keep`; a workload
        takes out what it uses.  The default keeps the output as it is, for
        outputs of a few kilobytes.
        """
        return output

    def checks(self, records: list[dict]) -> list[Check]:
        raise NotImplementedError

    def work(self, records: list[dict], spans) -> dict[str, float]:
        """Replications and events done by the timed calls, where they apply."""
        return {}

    def _write_config(self, name: str, data: dict) -> Path:
        path = self.workdir / name
        path.write_text(yaml.safe_dump(data, sort_keys=True))
        return path


class ConvergeC8(Workload):
    """`islandsis converge` on the C8 config, 10 replications per size per call."""

    name = "converge-c8"
    min_calls = 2
    replications = 10

    def build(self):
        self.config_path = self._write_config("converge.yaml", {
            "topology": {"generator": "bipartite"},
            "sizes": 100,
            "size_schedule": [100, 400, 1600],
            "strains": [{"gamma": 2.0, "mu": 1.0}],
            "initial": {"kind": "uniform", "fraction": 0.1},
            "t_end": 10.0,
            "grid": 21,
            "replications": self.replications,
            "seed": self.seed,
            "workers": 1,
        })
        cfg = ExperimentConfig.load(self.config_path)
        for size in cfg.size_schedule():
            net = cfg.build_net(size_override=size)
            cfg.strain_params(net)
            cfg.initial_counts(net)
            cfg.meanfield_params(net)
        self.out = self.workdir / "converge"
        self.seeds = {"master_seed_of_call_i": f"{self.seed} + (i << 32)"}

    def call_seed(self, index: int) -> int:
        # Call 0 uses the seed itself; later calls get disjoint Philox keys.
        return self.seed + (index << 32)

    def call(self, index):
        code = _cli(["converge", str(self.config_path), "--seed", str(self.call_seed(index)),
                     "--out", str(self.out)])
        report = json.loads((self.out / "convergence_report.json").read_text())
        return {"exit_code": code, "report": report}

    def checks(self, records):
        out = []
        for i, r in enumerate(records):
            trend = r["report"].get("monotone_trend")
            out.append(Check(f"call {i} exit code agrees with monotone_trend",
                             r["exit_code"] == (0 if trend else 1), f"exit {r['exit_code']}, trend {trend}"))
        problems = [verify.converge_problems(r["report"]) for r in records]
        devs = [[round(x["deviation"], 4) for x in r["report"]["records"]] for r in records]
        detail = "; ".join(f"call {i}: {', '.join(p)}" for i, p in enumerate(problems) if p)
        failed = verify.two_sample_verdict([bool(p) for p in problems])
        out.append(Check("C8 criteria on two independent calls", not failed,
                         f"deviations per call {devs}" + (f"; misses: {detail}" if detail else "")))
        return out

    def work(self, records, spans):
        events = sum(s.counts.get("events", 0) for s in spans if s.name == "micro.simulate")
        sizes = len(records[0]["report"]["records"])
        return {"replications": len(records) * sizes * self.replications, "events": events}


class SelfcheckC9(Workload):
    """C9's count-level against node-level comparison, 4000 replications each per call."""

    name = "selfcheck-c9"
    min_calls = 2
    replications = 4000

    def build(self):
        cfg = ExperimentConfig.from_dict({
            "topology": {"generator": "bipartite"},
            "sizes": 3,
            "strains": [{"gamma": 2.0, "mu": 1.0}],
            "initial": {"kind": "matrix", "values": [[1 / 3], [0.0]]},
            "t_end": 2.0,
            "grid": [0.0, 2.0],
            "seed": self.seed,
        })
        self.net = cfg.build_net()
        self.params = cfg.strain_params(self.net)
        self.counts0 = cfg.initial_counts(self.net)
        self.t_end = cfg.t_end
        self.grid = cfg.grid_times()
        self.seeds = {"count_level": self.seed, "node_level": self.seed + 2}
        self.initial_nodes = [
            [1] * row[0] + [0] * (size - row[0]) for row, size in zip(self.counts0.y, self.net.sizes)
        ]
        # Count-level and node-level totals of the even calls and of the odd calls.
        self.halves = [(verify.C9Sample(), verify.C9Sample()) for _ in range(2)]

    @staticmethod
    def _row(traj) -> list[int]:
        totals = traj.event_totals
        return [
            *(int(c) for c in traj.counts[-1, :, 0]),
            *(totals.get((micro.INFECT, i, 1), 0) for i in (1, 2)),
            *(totals.get((micro.HEAL, i, 1), 0) for i in (1, 2)),
            traj.n_events,
        ]

    def call(self, index):
        # Replication indices continue across calls, as in C9's single loop;
        # the node-level stream uses seed + 2 (C9: 11 and 13).
        reps = range(index * self.replications, (index + 1) * self.replications)
        count_rows = [self._row(micro.simulate(self.counts0, self.net, self.params, self.t_end,
                                               self.seed, self.grid, rep=rep)) for rep in reps]
        node_rows = [self._row(micro.node_level_simulate(self.net, self.params, self.initial_nodes,
                                                         self.t_end, self.seed + 2, self.grid, rep=rep))
                     for rep in reps]
        return {"count": np.asarray(count_rows, dtype=np.int64),
                "node": np.asarray(node_rows, dtype=np.int64)}

    def digest(self, index, output, kept):
        initial = tuple(row[0] for row in self.counts0.y)
        problems = [f"{kind}: {p}" for kind in ("count", "node")
                    for p in verify.selfcheck_invariant_problems(output[kind], initial, self.net.sizes[0])]
        for sample, kind in zip(self.halves[index % 2], ("count", "node")):
            sample.add(output[kind])
        return {"problems": problems,
                "events": int(output["count"][:, 6].sum() + output["node"][:, 6].sum())}

    def checks(self, records):
        out = [Check(f"call {i} event bookkeeping", not r["problems"], "; ".join(r["problems"]))
               for i, r in enumerate(records)]
        zs = [verify.worst_z(count, node) for count, node in self.halves]
        failed = verify.two_sample_verdict([z > verify.Z_LIMIT for z in zs])
        out.append(Check("C9 worst z <= 3 on two independent halves", not failed,
                         "worst z per half " + ", ".join(f"{z:.2f}" for z in zs)))
        return out

    def work(self, records, spans):
        events = sum(r["events"] for r in records)
        return {"replications": 2 * len(records) * self.replications, "events": events}


class MeanfieldCycle1000(Workload):
    """`islandsis meanfield` on a 1000-island cycle, K=2, one island started at 0.5."""

    name = "meanfield-cycle1000"
    islands = 1000
    gammas = (0.9, 0.7)

    def build(self):
        # The seed rotates the started island; on a cycle the work is the same.
        self.start = 1 + self.seed % self.islands
        self.config_path = self._write_config("meanfield.yaml", {
            "topology": {"generator": "cycle", "islands": self.islands},
            "sizes": 100,
            "strains": [{"gamma": g} for g in self.gammas],
            "initial": {"kind": "single_island", "island": self.start, "fraction": 0.5},
            "t_end": 20.0,
            "grid": 101,
            "seed": self.seed,
        })
        cfg = ExperimentConfig.load(self.config_path)
        net = cfg.build_net()
        cfg.meanfield_params(net)
        cfg.initial_fractions(net)
        self.grid = cfg.grid_times()
        self.out = self.workdir / "meanfield"
        self.seeds = {"started_island": self.start}
        self.first = None  # (states, times) of the first trajectory written

    def call(self, index):
        return {"exit_code": _cli(["meanfield", str(self.config_path), "--out", str(self.out)])}

    def digest(self, index, output, kept):
        written = kept.pop("harness.trajio.write_ode_trajectory", [])
        identical = True
        for args, kwargs in written:
            if self.first is None:
                self.first = (args[1].states, np.asarray(kwargs["times"]))
            else:
                identical &= bool(np.array_equal(args[1].states, self.first[0]))
        return {**output, "writes": len(written), "identical": identical}

    def checks(self, records):
        out = [Check(f"call {i} exit code", r["exit_code"] == 0, f"exit {r['exit_code']}")
               for i, r in enumerate(records)]
        out.append(Check("one trajectory written per call, all identical to the first",
                         all(r["writes"] == 1 and r["identical"] for r in records),
                         f"writes per call {[r['writes'] for r in records]}, "
                         f"identical {[r['identical'] for r in records]}"))
        if self.first is None:
            return out
        states, times = self.first
        # The CSV on disk is the last call's; every call's states equal the first's.
        problems = verify.readback_problems(read_trajectory(self.out / "meanfield.csv"), states, times)
        out.append(Check("CSV reads back bit-equal", not problems, "; ".join(problems)))
        y0 = np.zeros((self.islands, len(self.gammas)))
        y0[self.start - 1, 0] = 0.5
        gap = verify.reference_gap(states, verify.cycle_reference(self.gammas, y0, self.grid))
        out.append(Check("matches the DOP853 reference", gap <= verify.REFERENCE_TOL,
                         f"max |ODE - reference| {gap:.2e}, limit {verify.REFERENCE_TOL:.0e}"))
        return out


class SuiteAll(Workload):
    """`islandsis suite` with all six suites (27 checks)."""

    name = "suite-all"
    expected_checks = 27

    def build(self):
        # The suites carry their own fixed inputs; the seed only rotates their order.
        shift = self.seed % len(SUITE_NAMES)
        self.config_path = self._write_config("suite.yaml", {
            "suite": list(SUITE_NAMES[shift:] + SUITE_NAMES[:shift]),
        })
        self.seeds = {"suite_order": list(ExperimentConfig.load(self.config_path).suites())}
        self.out = self.workdir / "suite"

    def call(self, index):
        code = _cli(["suite", str(self.config_path), "--out", str(self.out)])
        return {"exit_code": code, "report": json.loads((self.out / "suite_report.json").read_text())}

    def checks(self, records):
        out = []
        for i, r in enumerate(records):
            problems = verify.suite_problems(r["exit_code"], r["report"], self.expected_checks)
            out.append(Check(f"call {i} suites", not problems, "; ".join(problems)))
        return out


WORKLOADS = {w.name: w for w in (ConvergeC8, SelfcheckC9, MeanfieldCycle1000, SuiteAll)}
