"""The benchmark's workloads: which `instaqc` command each runs, and how big.

Each workload is one CLI invocation that takes about two seconds of `main()`
on a 2-core x86 box, so a run of the benchmark fits several fresh-interpreter
invocations and reports their median.  Why each workload exists is in
README.md next to this file.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TeleportSpec:
    n: int
    depth: int
    corrections: bool
    trials: int

    def argv(self, seed: int, out: str) -> list[str]:
        repair = ["--corrections"] if self.corrections else []
        return ["teleport", "--n", str(self.n), "--depth", str(self.depth),
                *repair, "--trials", str(self.trials), "--seed", str(seed),
                "--out", out]

    @property
    def trial_count(self) -> int:
        return self.trials


@dataclass(frozen=True)
class GameSpec:
    ns: tuple[int, ...]
    strategies: tuple[str, ...]   # CLI tokens
    penalties: tuple[float, ...]
    trials: int

    def argv(self, seed: int, out: str) -> list[str]:
        return ["game", "--n", f"{self.ns[0]}:{self.ns[-1]}",
                "--strategies", ",".join(self.strategies),
                "--penalty", ",".join(f"{p:g}" for p in self.penalties),
                "--trials", str(self.trials), "--seed", str(seed), "--out", out]

    def points(self) -> list[tuple[str, int, float]]:
        """(strategy token, n, penalty) in the CLI's output order."""
        return [(s, n, p) for s in self.strategies for n in self.ns
                for p in self.penalties]

    @property
    def trial_count(self) -> int:
        return self.trials * len(self.points())


WORKLOADS = {
    "teleport-repair": TeleportSpec(n=2, depth=8, corrections=True, trials=700),
    "teleport-wide": TeleportSpec(n=5, depth=3, corrections=False, trials=400),
    "game-sweep": GameSpec(
        ns=(1, 2, 3, 4),
        strategies=("no_answer", "random", "instant", "classical", "rsp",
                    "approx:0.9"),
        penalties=(0.0, 10.0),
        trials=150),
}
