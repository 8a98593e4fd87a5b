"""The benchmark's four workloads: inputs, timed set-up, op rounds, oracles.

Every workload is a closed loop: a caller issues its next op only after
the previous reply, because Crimson's callers are evaluation scripts
that wait for each answer.  A workload yields *rounds*, lists of ops;
each op carries the call the loop times and a check the loop runs
later, outside the timed region, against an in-memory oracle.

The output format needs every end-to-end metric on every workload, so
every workload runs all seven op kinds (``lca``, ``lca_batch``,
``clade``, ``project``, ``trial``, ``load``, ``consensus``).  Each one
spends most of its time on the kinds it exists for and issues the rest
at a low rate over its own data.  On the three gold-standard workloads
``load`` is a small structure-only profile document loaded during the
run; loading the gold standard itself is part of set-up.

Inputs come from the workload seed alone and are generated before any
timing; the program only ever sees those inputs (NEXUS text, query
arguments).
"""

from __future__ import annotations

import itertools
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator

import numpy as np

from repro.benchmark.consensus import majority_rule_consensus
from repro.benchmark.manager import DEFAULT_ALGORITHMS, BenchmarkManager
from repro.benchmark.metrics import compare_splits, same_topology
from repro.core.clade import minimal_spanning_clade
from repro.core.lca import LcaService
from repro.core.projection import project_tree
from repro.reconstruction.distances import distance_matrix
from repro.reconstruction.nj import neighbor_joining
from repro.server.client import RemoteSession
from repro.simulation.birth_death import yule_tree
from repro.simulation.models import jc69
from repro.simulation.seqgen import evolve_sequences
from repro.storage.api import QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar
from repro.trees.nexus import CharacterMatrix, NexusDocument, write_nexus
from repro.trees.tree import PhyloTree

KINDS = ("lca", "lca_batch", "clade", "project", "trial", "load", "consensus")
GOLD = "gold"
EVALUATION = "evaluation"
PROFILE = "profile"
ALGORITHM = "nj-jc69"
#: Seed of the warm-up ops' arguments (distinct from any run seed's draws).
WARM_SEED = 2**31 - 1


# ----------------------------------------------------------------------
# Ops and oracles
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One timed call and the check of its answer."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    #: Runs while every other client waits (see ``Workload.rounds``).
    solo: bool = False


class Oracle:
    """Answers over a generated tree from the in-memory algorithms
    (``core.lca``, ``core.clade``, ``core.projection``)."""

    def __init__(self, tree: PhyloTree) -> None:
        self.tree = tree
        self.rank = {id(node): i for i, node in enumerate(tree.preorder())}
        self.service = LcaService(tree)

    def lca(self, a: str, b: str) -> int:
        node = self.service.lca(self.tree.find(a), self.tree.find(b))
        return self.rank[id(node)]

    def clade(self, names: list[str]) -> list[int]:
        nodes = minimal_spanning_clade(self.tree, names, self.service)
        return [self.rank[id(node)] for node in nodes]

    def project(self, names: list[str]) -> PhyloTree:
        return project_tree(self.tree, names, lca_service=self.service)


def lca_op(session, oracle: Oracle, tree: str, a: str, b: str) -> Op:
    request = QueryRequest.lca(tree, a, b)
    return Op(
        "lca",
        lambda: session.query(request),
        lambda result: result.node.node_id == oracle.lca(a, b),
    )


def batch_op(session, oracle: Oracle, tree: str, pairs: list) -> Op:
    request = QueryRequest.lca_batch(tree, pairs)
    return Op(
        "lca_batch",
        lambda: session.query(request),
        lambda result: [row.node_id for row in result.nodes]
        == [oracle.lca(a, b) for a, b in pairs],
    )


def clade_op(session, oracle: Oracle, tree: str, a: str, b: str) -> Op:
    request = QueryRequest.clade(tree, a, b)
    return Op(
        "clade",
        lambda: session.query(request),
        lambda result: [row.node_id for row in result.nodes]
        == oracle.clade([a, b]),
    )


def project_op(session, oracle: Oracle, tree: str, names: list[str]) -> Op:
    request = QueryRequest.project(tree, *names)
    return Op(
        "project",
        lambda: session.query(request),
        lambda result: result.projection.equals(
            oracle.project(names), tolerance=1e-9
        ),
    )


def consensus_op(session, names: list[str], expected) -> Op:
    """``expected`` is ``majority_rule_consensus`` over the same trees.
    Child order follows set iteration, which differs between processes,
    so the trees are compared as unordered topologies."""
    tree, support = expected

    def check(result) -> bool:
        got = {frozenset(split): value for split, value in result.support.items()}
        return same_topology(result.consensus, tree) and got == support

    return Op("consensus", lambda: session.consensus(names), check)


def trial_op(manager: BenchmarkManager, tree: str, oracle: Oracle,
             sequences: dict[str, str], k: int, seed: tuple) -> Op:
    """One ``run_trial``; the check recomputes the projection and the
    reconstruction from the generated sequences, so a wrong species
    fetch shows as a different estimate."""

    def check(trial) -> bool:
        sample = trial.sample
        if len(sample) != k or len(set(sample)) != k:
            return False
        projection = oracle.project(sample)
        if not trial.projection.equals(projection, tolerance=1e-9):
            return False
        expected = neighbor_joining(
            distance_matrix({name: sequences[name] for name in sample}, "jc69")
        )
        got = trial.results[ALGORITHM]
        return got.estimate.equals(expected, tolerance=1e-9) and (
            got.comparison == compare_splits(projection, expected)
        )

    return Op(
        "trial",
        lambda: manager.run_trial(
            tree, k=k, rng=np.random.default_rng(list(seed))
        ),
        check,
    )


def load_op(store: CrimsonStore, text: str, name: str,
            trees: list[tuple[str, PhyloTree]], species: bool) -> Op:
    """``load_nexus_text`` of a document whose trees are stored under the
    keys in ``trees``; each must verify clean and match its input's node
    and leaf counts, with a species row per leaf when the document has a
    matrix."""

    def check(handles) -> bool:
        if len(handles) != len(trees):
            return False
        for handle, (key, tree) in zip(handles, trees):
            [report] = store.verify(key)
            n_leaves = len(tree.leaves())
            if not (
                report.ok
                and handle.info.name == key
                and handle.info.n_nodes == tree.size()
                and handle.info.n_leaves == n_leaves
                and store.species.count(handle) == (n_leaves if species else 0)
            ):
                return False
        return True

    return Op("load", lambda: store.load_nexus_text(text, name=name), check)


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------


def nexus_text(trees: list[tuple[str, PhyloTree]],
               sequences: dict[str, str] | None = None) -> str:
    characters = CharacterMatrix(rows=sequences) if sequences else None
    return write_nexus(NexusDocument(characters=characters, trees=trees))


def clade_targets(tree: PhyloTree, low: int, high: int) -> list[tuple[str, str]]:
    """(first leaf, last leaf) of every interior node whose clade has
    ``low..high`` rows; the LCA of that pair is the node itself.  Falls
    back to the node whose clade size is nearest the range."""
    order = list(tree.preorder())
    rows = {id(node): 1 for node in order}
    for node in reversed(order):
        if node.parent is not None:
            rows[id(node.parent)] += rows[id(node)]
    sized = []
    for node in order:
        if node.children:
            first, last = node, node
            while first.children:
                first = first.children[0]
            while last.children:
                last = last.children[-1]
            sized.append((rows[id(node)], first.name, last.name))
    inside = [(a, b) for size, a, b in sized if low <= size <= high]
    if inside:
        return inside
    middle = (low + high) / 2
    _, a, b = min(sized, key=lambda item: abs(item[0] - middle))
    return [(a, b)]


@dataclass
class Corpus:
    """One generated tree with its sequences, NEXUS text and oracle."""

    tree: PhyloTree
    sequences: dict[str, str]
    text: str

    @cached_property
    def oracle(self) -> Oracle:
        return Oracle(self.tree)

    @cached_property
    def leaves(self) -> list[str]:
        return self.tree.leaf_names()


def make_corpus(tree: PhyloTree, label: str, sites: int, scale: float,
                rng: np.random.Generator) -> Corpus:
    """A tree with JC69 sequences (none when ``sites`` is 0)."""
    sequences = (
        evolve_sequences(tree, jc69(), sites, rng=rng, scale=scale)
        if sites else {}
    )
    return Corpus(tree, sequences, nexus_text([(label, tree)], sequences))


@dataclass
class Inputs:
    """Everything a run needs, generated from the seed before timing."""

    gold: Corpus | None = None
    #: Where trials run when the gold standard has no sequences.
    evaluation: Corpus | None = None
    profile: list[PhyloTree] = field(default_factory=list)
    profile_text: str = ""
    pool: list[Corpus] = field(default_factory=list)
    clades: list[tuple[str, str]] = field(default_factory=list)
    hot: list[str] = field(default_factory=list)
    hot_weights: np.ndarray | None = None

    @cached_property
    def consensus(self):
        return majority_rule_consensus(self.profile)


# ----------------------------------------------------------------------
# Set-up context
# ----------------------------------------------------------------------


@dataclass
class Context:
    """Live state of one set-up: store, sessions, server."""

    directory: str
    store: CrimsonStore
    manager: BenchmarkManager
    sessions: list[Any]
    load_ms: list[float] = field(default_factory=list)
    server: subprocess.Popen | None = None
    access_log: str | None = None
    #: NEXUS bytes loaded into the store so far.
    loaded_bytes: int = 0

    def server_peak_rss_mb(self) -> float | None:
        """The server's peak resident set (``VmHWM``), while it runs."""
        if self.server is None:
            return None
        with open(f"/proc/{self.server.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the server process")

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.store.close()
        if self.server is not None:
            stop_server(self.server)
            self.server = None


def new_manager(store: CrimsonStore) -> BenchmarkManager:
    return BenchmarkManager(
        store,
        algorithms={ALGORITHM: DEFAULT_ALGORITHMS[ALGORITHM]},
        record_history=True,
    )


def timed_load(store: CrimsonStore, text: str, name: str, f: int) -> float:
    started = time.perf_counter()
    store.load_nexus_text(text, name=name, f=f)
    return (time.perf_counter() - started) * 1000.0


def nexus_bytes(*texts: str) -> int:
    return sum(len(text.encode("utf-8")) for text in texts)


def store_bytes_per_input_byte(context: Context) -> float:
    """The store's files (after it is closed) over the NEXUS bytes loaded."""
    stored = sum(
        entry.stat().st_size for entry in os.scandir(context.directory)
        if entry.is_file() and not entry.name.endswith(".log")
    )
    return stored / context.loaded_bytes


# ----------------------------------------------------------------------
# The server subprocess (remote_mix)
# ----------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_server(db: str, src: str, access_log: str | None,
                 readers: int) -> tuple[subprocess.Popen, int]:
    """``crimson serve`` in a subprocess; returns once it listens."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for _attempt in range(3):
        port = free_port()
        command = [
            sys.executable, "-m", "repro.cli.main", "--db", db,
            "--readers", str(readers), "serve", "--port", str(port),
            # Priced but never refused: admission runs on every request.
            "--max-cost", "1e12",
        ]
        if access_log is not None:
            command += ["--access-log", access_log]
        process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        banner = _read_banner(process)
        if banner:
            return process, port
        stop_server(process)
    raise RuntimeError("crimson serve did not start")


def _read_banner(process: subprocess.Popen, timeout: float = 60.0) -> bool:
    deadline = time.monotonic() + timeout
    stream = process.stdout
    assert stream is not None
    while time.monotonic() < deadline:
        ready, _, _ = select.select([stream], [], [], 0.1)
        if ready:
            line = stream.readline()
            if not line:
                return False
            if line.startswith(b"serving "):
                return True
        elif process.poll() is not None:
            return False
    return False


def stop_server(process: subprocess.Popen) -> None:
    """SIGINT (the server drains), then wait; kill if it hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def pairs(rng: np.random.Generator, names: list[str], count: int,
          weights: np.ndarray | None = None) -> list[tuple[str, str]]:
    out = []
    for _ in range(count):
        a, b = rng.choice(len(names), size=2, replace=False, p=weights)
        out.append((names[int(a)], names[int(b)]))
    return out


def pick(rng: np.random.Generator, names: list[str], count: int,
         weights: np.ndarray | None = None) -> list[str]:
    chosen = rng.choice(len(names), size=count, replace=False, p=weights)
    return [names[int(i)] for i in chosen]


@dataclass(frozen=True)
class Workload:
    """Shared shape of the four workloads; sizes are fields so the
    benchmark's tests can run them tiny.

    A round of the three gold-standard workloads is one ``lca``,
    ``lca_batch``, ``clade`` and ``project``; client 0 adds a trial every
    ``trial_every`` rounds, and a consensus of the profile plus a load
    of the profile document every ``every`` rounds.
    """

    name: str
    leaves: int
    sites: int = 300
    scale: float = 0.05
    f: int = 8
    k: int = 32
    batch: int = 25
    project: int = 16
    clade_rows: tuple[int, int] = (3, 127)
    profile_trees: int = 8
    profile_leaves: int = 128
    trial_every: int = 4
    every: int = 16
    threads: int = 1
    setups: int = 3
    #: Rounds whose counts form the repeatable ledger of a traced run.
    ledger_rounds: int = 8
    #: The store that ``store_bytes_per_input_byte`` measures: the first
    #: set-up's, closed before the run (else the run's own).
    ratio_after_setup = True
    #: Each client issues a round's queries in its own random order.
    interleave = False

    @property
    def min_rounds(self) -> int:
        """Rounds every client runs at least, so each op kind appears."""
        return max(self.every, self.trial_every)

    # -- inputs ---------------------------------------------------------

    def gold_tree(self, rng: np.random.Generator) -> PhyloTree:
        return yule_tree(self.leaves, rng=rng)

    def gold_corpus(self, rng: np.random.Generator) -> Corpus:
        return make_corpus(self.gold_tree(rng), GOLD, self.sites,
                           self.scale, rng)

    def generate(self, seed: int) -> Inputs:
        rng = np.random.default_rng([seed, 0])
        gold = self.gold_corpus(rng)
        profile = [
            yule_tree(self.profile_leaves, rng=rng)
            for _ in range(self.profile_trees)
        ]
        profile_text = nexus_text(
            [(f"p{i + 1}", tree) for i, tree in enumerate(profile)]
        )
        return Inputs(
            gold=gold,
            profile=profile,
            profile_text=profile_text,
            clades=clade_targets(gold.tree, *self.clade_rows),
        )

    def profile_names(self, prefix: str = PROFILE) -> list[str]:
        return [f"{prefix}-p{i + 1}" for i in range(self.profile_trees)]

    # -- set-up -----------------------------------------------------------

    def setup(self, inputs: Inputs, directory: str, src: str,
              trace: bool) -> Context:
        store = CrimsonStore.open(os.path.join(directory, "crimson.db"))
        load_ms = timed_load(store, inputs.gold.text, GOLD, self.f)
        store.load_nexus_text(inputs.profile_text, name=PROFILE)
        context = Context(directory, store, new_manager(store),
                          [store.session()], [load_ms])
        context.loaded_bytes = nexus_bytes(inputs.gold.text,
                                           inputs.profile_text)
        self.warm(context, inputs)
        return context

    def warm(self, context: Context, inputs: Inputs) -> None:
        """One op of every kind, so lazy imports and statement caches are
        primed before timing."""
        seed = (WARM_SEED, 0)
        ops = next(self.rounds(context, inputs, WARM_SEED, 0))
        ops += [self.trial(context, inputs, seed),
                *self.profile_ops(context, inputs, seed)]
        for op in ops:
            op.run()

    # -- rounds -----------------------------------------------------------

    def query_ops(self, session, oracle: Oracle, tree: str,
                  names: list[str], clades: list[tuple[str, str]],
                  rng: np.random.Generator,
                  weights: np.ndarray | None = None) -> list[Op]:
        """lca, lca_batch, clade, project over taxa drawn from ``names``
        (uniformly, or by ``weights``)."""
        [(a, b)] = pairs(rng, names, 1, weights)
        c, d = clades[int(rng.integers(len(clades)))]
        return [
            lca_op(session, oracle, tree, a, b),
            batch_op(session, oracle, tree,
                     pairs(rng, names, self.batch, weights)),
            clade_op(session, oracle, tree, c, d),
            project_op(session, oracle, tree,
                       pick(rng, names, self.project, weights)),
        ]

    def trial(self, context: Context, inputs: Inputs, seed: tuple) -> Op:
        name, corpus = GOLD, inputs.gold
        if inputs.evaluation is not None:
            name, corpus = EVALUATION, inputs.evaluation
        return trial_op(context.manager, name, corpus.oracle,
                        corpus.sequences, self.k, seed)

    def profile_ops(self, context: Context, inputs: Inputs,
                    seed: tuple) -> list[Op]:
        """A consensus of the profile, and the profile document loaded
        again under new keys (client 0's session and store)."""
        name = "load-{}-{}".format(*seed)
        context.loaded_bytes += nexus_bytes(inputs.profile_text)
        return [
            consensus_op(context.sessions[0], self.profile_names(),
                         inputs.consensus),
            load_op(context.store, inputs.profile_text, name,
                    list(zip(self.profile_names(name), inputs.profile)),
                    species=False),
        ]

    def taxa(self, inputs: Inputs) -> tuple[list[str], np.ndarray | None]:
        """The taxa queries draw from, and their weights."""
        return inputs.gold.leaves, None

    def before_round(self, context: Context) -> None:
        """Harness action between rounds, off the clock."""

    def rounds(self, context: Context, inputs: Inputs, seed: int,
               thread: int) -> Iterator[list[Op]]:
        rng = np.random.default_rng([seed, 1, thread])
        names, weights = self.taxa(inputs)
        for number in itertools.count():
            self.before_round(context)
            ops = self.query_ops(context.sessions[thread], inputs.gold.oracle,
                                 GOLD, names, inputs.clades, rng, weights)
            if self.interleave:
                ops = [ops[i] for i in rng.permutation(len(ops))]
            low_rate = []
            if thread == 0 and number % self.trial_every == self.trial_every - 1:
                low_rate.append(self.trial(context, inputs, (seed, number)))
            if thread == 0 and number % self.every == self.every - 1:
                low_rate += self.profile_ops(context, inputs, (seed, number))
            # Client 0's low-rate ops run alone, so that with several
            # clients they never share the interpreter with a query.
            for op in low_rate:
                op.solo = True
            yield ops + low_rate


class Trials(Workload):
    """A trial every round.  The gold standard does not fit the row
    caches, and every trial reads it through a fresh, cold handle; the
    round's queries run cold too, from a cache emptied before the round,
    so their times do not flip between an all-hit and a miss path."""

    def before_round(self, context):
        context.store.open_tree(GOLD).clear_cache()


class DeepLocal(Workload):
    """The caterpillar gold standard, with warm caches."""

    def gold_tree(self, rng):
        return caterpillar(self.leaves)

    def warm(self, context, inputs):
        handle = context.store.open_tree(GOLD)
        handle.preorder_rows()
        leaves = inputs.gold.leaves
        handle.lca_batch(list(zip(leaves, leaves[1:])))
        super().warm(context, inputs)


class RemoteMix(Workload):
    """``crimson serve`` in a subprocess; each client thread has its own
    connection and draws taxa from a skewed hot set.  The served gold
    standard is structure only; client 0's in-process trials run on a
    small evaluation tree with sequences."""

    hot: int = 300
    readers: int = 2
    evaluation_leaves: int = 500
    # Clients that issue the same kinds in the same order after every
    # barrier overlap only when one slips a step, which a noisy host
    # makes happen at a rate that changes from run to run; in random
    # orders every pairing of kinds overlaps at a steady rate.
    interleave = True

    def generate(self, seed):
        inputs = super().generate(seed)
        rng = np.random.default_rng([seed, 2])
        inputs.evaluation = make_corpus(
            yule_tree(min(self.evaluation_leaves, self.leaves), rng=rng),
            EVALUATION, self.sites, self.scale, rng,
        )
        inputs.hot = pick(rng, inputs.gold.leaves,
                          min(self.hot, len(inputs.gold.leaves)))
        weights = 1.0 / np.arange(1, len(inputs.hot) + 1)
        inputs.hot_weights = weights / weights.sum()
        return inputs

    def taxa(self, inputs):
        return inputs.hot, inputs.hot_weights

    def gold_corpus(self, rng):
        return make_corpus(self.gold_tree(rng), GOLD, 0, self.scale, rng)

    def setup(self, inputs, directory, src, trace):
        path = os.path.join(directory, "crimson.db")
        with CrimsonStore.open(path) as store:
            load_ms = timed_load(store, inputs.gold.text, GOLD, self.f)
            store.load_nexus_text(inputs.profile_text, name=PROFILE)
            store.load_nexus_text(inputs.evaluation.text, name=EVALUATION)
        access_log = os.path.join(directory, "access.log") if trace else None
        server, port = start_server(path, src, access_log, self.readers)
        try:
            sessions = [
                RemoteSession("127.0.0.1", port, timeout=120.0)
                for _ in range(self.threads)
            ]
            # The evaluation script beside the server: in-process trials
            # and loads on the same store file while the clients query it.
            local = CrimsonStore.open(path)
        except BaseException:
            stop_server(server)
            raise
        context = Context(directory, local, new_manager(local), sessions,
                          [load_ms], server, access_log)
        context.loaded_bytes = nexus_bytes(inputs.gold.text,
                                           inputs.profile_text,
                                           inputs.evaluation.text)
        hot = inputs.hot
        for session in sessions:
            session.query(QueryRequest.lca_batch(GOLD, list(zip(hot, hot[1:]))))
            session.query(QueryRequest.project(GOLD, *hot))
            for a, b in inputs.clades:
                session.query(QueryRequest.clade(GOLD, a, b))
        self.warm(context, inputs)
        return context


class Ingest(Workload):
    """One NEXUS load into a 2-shard store, then one of each query and a
    trial on the tree just written (cold reads), and the same kinds on
    it again with its row cache emptied first, so both are cold and the
    tails have twice the samples.  Once ``every`` trees are written,
    each load is preceded by a consensus over the last ``every`` trees
    written, their row caches emptied first, so every load adds a cold
    consensus sample and the pool's windows all take turns.  Each of
    these steps is a round of its own, so the probes that scale its
    times are taken right before and after it."""

    pool: int = 16
    shards: int = 2
    ratio_after_setup = False

    @property
    def min_rounds(self) -> int:
        return 3 * self.every + 1

    def generate(self, seed):
        rng = np.random.default_rng([seed, 0])
        pool = [
            make_corpus(yule_tree(self.leaves, rng=rng), "t", self.sites,
                        self.scale, rng)
            for _ in range(self.pool)
        ]
        return Inputs(pool=pool)

    def window_consensus(self, inputs: Inputs, first: int,
                         memo: dict[int, Any]):
        """The consensus of loads ``first .. first + every - 1``, which
        cycle through the pool, so the answer repeats every pool length."""
        start = first % self.pool
        if start not in memo:
            memo[start] = majority_rule_consensus([
                inputs.pool[(start + j) % self.pool].tree
                for j in range(self.every)
            ])
        return memo[start]

    def setup(self, inputs, directory, src, trace):
        store = CrimsonStore.open(os.path.join(directory, "crimson.db"),
                                  shards=self.shards)
        context = Context(directory, store, new_manager(store),
                          [store.session()])
        warm = inputs.pool[0]
        context.load_ms.append(timed_load(store, warm.text, "warm", self.f))
        context.loaded_bytes += nexus_bytes(warm.text)
        for op in self.per_load_ops(context, warm, "warm",
                                    np.random.default_rng(WARM_SEED),
                                    (WARM_SEED, 0)):
            op.run()
        return context

    def per_load_ops(self, context, corpus, key, rng, seed):
        clades = clade_targets(corpus.tree, *self.clade_rows)
        return self.query_ops(context.sessions[0], corpus.oracle, key,
                              corpus.leaves, clades, rng) + [
            trial_op(context.manager, key, corpus.oracle, corpus.sequences,
                     self.k, seed)
        ]

    def rounds(self, context, inputs, seed, thread):
        rng = np.random.default_rng([seed, 1, thread])
        memo: dict[int, Any] = {}
        keys: list[str] = []
        for number in itertools.count():
            if len(keys) >= self.every:
                window = keys[-self.every:]
                for key in window:
                    context.store.open_tree(key).clear_cache()
                expected = self.window_consensus(inputs, number - self.every,
                                                 memo)
                yield [consensus_op(context.sessions[0], window, expected)]
            corpus = inputs.pool[number % self.pool]
            key = f"in{number}"
            keys.append(key)
            context.loaded_bytes += nexus_bytes(corpus.text)
            yield [load_op(context.store, corpus.text, key,
                           [(key, corpus.tree)], species=True)]
            yield self.per_load_ops(context, corpus, key, rng, (seed, number))
            context.store.open_tree(key).clear_cache()
            yield self.per_load_ops(context, corpus, key, rng,
                                    (seed, number, 1))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Why each workload exists is recorded in BENCHMARK.json.
        Trials("trials", leaves=4000, trial_every=1, every=8),
        DeepLocal("deep_local", leaves=1000, scale=0.0005,
                  clade_rows=(3, 200), ledger_rounds=64),
        RemoteMix("remote_mix", leaves=4000, project=32,
                  clade_rows=(300, 600), threads=2, trial_every=2, every=8,
                  ledger_rounds=32),
        Ingest("ingest", leaves=250, every=8, ledger_rounds=40),
    )
}
