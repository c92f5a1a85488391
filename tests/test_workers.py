"""`finprob all` over forked workers: the same checks from any number of
processes, a job's failure raised in the caller, and no child left behind."""

import os
import pickle
import signal
import threading
from fractions import Fraction

import pytest

from finprob import cli, lipmetric, workers
from finprob.errors import InputError
from finprob.report import CheckOutcome, SuiteConfig

RUNNERS = sorted({name for name, _ in cli.ALL_JOBS.values()})


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs this process may run on to the first ``n``."""

    def force(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return force


@pytest.fixture
def alarm():
    """A TimeoutError in this process after 60 s, instead of a hang."""

    def expire(signum, frame):
        raise TimeoutError("no result within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


PARENT = os.getpid()

# where each job of `all` files its checks
PREFIX = {
    **{job: job for job in cli.ALL_JOBS},
    "laws.charge": "laws.finitely_additive",
    "codensity": "codensity.sigma",
    "bijection": "codensity.finitely_additive",
}


def in_child() -> bool:
    return os.getpid() != PARENT


def stamp_pids(monkeypatch):
    """Each runner of `all` adds a ``pid`` check whose witness is the id of
    the process that ran it."""
    for name in RUNNERS:
        real = getattr(cli, name)

        def runner(config, real=real):
            return (*real(config), CheckOutcome("pid", 1, 0, (os.getpid(),)))

        monkeypatch.setattr(cli, name, runner)


def pids_by_job(checks) -> dict:
    pids = {c.name.removesuffix(".pid"): c.witnesses[0] for c in checks if c.name.endswith(".pid")}
    return {job: pids[prefix] for job, prefix in PREFIX.items()}


def caller_share(n) -> set:
    """The jobs of `all` that this process runs itself on ``n`` CPUs."""
    costs = [cost for _, cost in cli.ALL_JOBS.values()]
    return {list(cli.ALL_JOBS)[i] for i in workers.shares(costs, n)[0]}


def test_the_checks_are_the_same_from_one_process_and_from_two(cpus, alarm):
    cpus(1)
    alone = cli.run_all(SuiteConfig(cases=20))
    cpus(2)
    assert cli.run_all(SuiteConfig(cases=20)) == alone
    assert_no_child_left()


def test_two_cpus_run_the_jobs_in_two_processes(cpus, monkeypatch, alarm):
    cpus(2)
    stamp_pids(monkeypatch)
    pids = pids_by_job(cli.run_all(SuiteConfig(cases=20)))
    assert {job for job, pid in pids.items() if pid == PARENT} == caller_share(2)
    assert len(set(pids.values())) == 2
    assert_no_child_left()


def test_each_job_runs_once_in_a_fixed_share():
    costs = [cost for _, cost in cli.ALL_JOBS.values()]
    for n in range(1, 11):
        split = workers.shares(costs, n)
        assert sorted(i for share in split for i in share) == list(range(len(costs)))
        assert split == workers.shares(costs, n)
    assert workers.shares(costs, 1) == [list(range(len(costs)))]


def test_on_two_cpus_the_child_share_fits_its_allowance():
    """The child's share of `all` costs at most the caller's over
    CALLER_WEIGHT, so it ends first on a core that slow."""
    costs = [cost for _, cost in cli.ALL_JOBS.values()]
    mine, theirs = (sum(costs[i] for i in share) for share in workers.shares(costs, 2))
    assert theirs <= mine / workers.CALLER_WEIGHT


@pytest.mark.parametrize("n", [2, 3])
def test_a_fault_installed_before_the_fork_reaches_the_children(cpus, monkeypatch, alarm, n):
    """bench/faults.py's ``distance-off`` fault, every LP distance 1/1000
    too large, set in this process, fails a check that a child ran: on two
    CPUs the LP spot checks of lipschitz-equivalence, on three the distance
    and nonexpansive suites too."""
    original = lipmetric.bl_distance_lp_witness

    def faulty(p, q, space):
        value, f = original(p, q, space)
        return value + Fraction(1, 1000), f

    monkeypatch.setattr(lipmetric, "bl_distance_lp_witness", faulty)
    cpus(n)
    stamp_pids(monkeypatch)
    checks = cli.run_all(SuiteConfig(cases=20))
    pids = pids_by_job(checks)
    caught = {
        job
        for job, prefix in PREFIX.items()
        if any(c.failed and c.name.startswith(f"{prefix}.") for c in checks)
    }
    assert {"distance", "nonexpansive", "lipschitz-equivalence"} <= caught
    assert any(pids[job] != PARENT for job in caught)
    assert_no_child_left()


def fail_once(monkeypatch, where, fault):
    """Every runner of `all` returns one passing check, except that the
    first job to start in ``where`` ("parent" or "child") calls ``fault``."""
    calls = []

    def runner(config):
        if in_child() == (where == "child") and not calls:
            calls.append(True)
            fault()
        return (CheckOutcome("fake", 1, 0),)

    for name in RUNNERS:
        monkeypatch.setattr(cli, name, runner)


def raise_input_error():
    raise InputError("a malformed input, as a runner sees it", "$.p")


def raise_runtime_error():
    raise RuntimeError("a fault of finprob's own")


@pytest.mark.parametrize("where", ["parent", "child"])
def test_an_input_error_in_a_job_exits_two(capsys, cpus, monkeypatch, alarm, where):
    cpus(2)
    fail_once(monkeypatch, where, raise_input_error)
    code = cli.run(["all", "--cases", "20"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "input error at $.p: a malformed input, as a runner sees it\n"
    assert_no_child_left()


@pytest.mark.parametrize("where", ["parent", "child"])
def test_an_internal_error_in_a_job_exits_three(capsys, cpus, monkeypatch, alarm, where):
    cpus(2)
    fail_once(monkeypatch, where, raise_runtime_error)
    code = cli.run(["all", "--cases", "20"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal error: RuntimeError: a fault of finprob's own\n"
    assert_no_child_left()


def test_a_child_that_dies_without_its_results_exits_three(capsys, cpus, monkeypatch, alarm):
    cpus(2)
    fail_once(monkeypatch, "child", lambda: os._exit(1))
    code = cli.run(["all", "--cases", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("internal error: RuntimeError: worker ")
    assert "ended with status 1 before sending its results" in captured.err
    assert_no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The list of this process's forks from here on."""
    made = []
    fork = os.fork

    def counted():
        made.append(True)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def test_no_more_children_than_jobs_or_cpus_less_one(cpus, forks, alarm):
    jobs = [lambda i=i: i * i for i in range(10)]
    for n, children in ((64, 9), (3, 2), (1, 0)):
        forks.clear()
        cpus(n)
        assert workers.run_jobs(jobs, [1] * 10) == [i * i for i in range(10)]
        assert len(forks) == children
        assert_no_child_left()


def test_no_fork_while_another_thread_runs(cpus, forks):
    cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert workers.run_jobs([os.getpid] * 4, [1] * 4) == [os.getpid()] * 4
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert forks == []


def test_without_fork_or_a_process_to_spare_the_caller_runs_every_job(cpus, monkeypatch):
    cpus(2)
    jobs = [os.getpid] * 4

    def refused():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refused)
    assert workers.run_jobs(jobs, [1] * 4) == [os.getpid()] * 4
    monkeypatch.delattr(os, "fork")
    assert workers.run_jobs(jobs, [1] * 4) == [os.getpid()] * 4


class Awkward(Exception):
    """An exception whose class takes other arguments than its ``args``."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_does_not_rebuild_arrives_as_its_text(cpus, alarm):
    cpus(2)

    def job():
        if in_child():
            raise Awkward("one", "two")

    with pytest.raises(RuntimeError, match="^Awkward: one and two$"):
        workers.run_jobs([job, job], [1, 1])
    assert_no_child_left()


def test_an_input_error_survives_the_trip_from_a_child():
    error = pickle.loads(pickle.dumps(InputError("bad rational", "$.p[0]")))
    assert (str(error), error.location) == ("$.p[0]: bad rational", "$.p[0]")


def test_a_result_that_does_not_pickle_arrives_as_an_error(cpus, alarm):
    cpus(2)

    def job():
        return (lambda: None) if in_child() else None

    with pytest.raises(RuntimeError, match="^(Pickling|Attribute)Error: .*pickle"):
        workers.run_jobs([job, job], [1, 1])
    assert_no_child_left()
