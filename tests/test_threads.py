import sys
import threading

from qbench._threads import once


class TestOnce:
    """``once(fn)`` runs ``fn`` on the first call from any thread; every later
    call returns at once."""

    def test_two_thread_races_run_fn_once_each(self):
        # a short switch interval makes the threads swap often inside the race
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(1000):
                ran, start = [], threading.Barrier(2, timeout=10)
                call = once(lambda: ran.append(threading.current_thread()))

                def race():
                    start.wait()
                    call()

                other = threading.Thread(target=race)
                other.start()
                race()
                other.join(timeout=10)
                assert not other.is_alive()
                assert len(ran) == 1
        finally:
            sys.setswitchinterval(interval)

    def test_the_losing_caller_returns_while_fn_runs(self):
        running, release = threading.Event(), threading.Event()

        def fn():
            running.set()
            assert release.wait(timeout=10)

        call = once(fn)
        winner, loser = threading.Thread(target=call), threading.Thread(target=call)
        winner.start()
        try:
            assert running.wait(timeout=10)
            loser.start()
            loser.join(timeout=10)
            assert not loser.is_alive() and winner.is_alive()
        finally:
            release.set()
            winner.join(timeout=10)
            loser.join(timeout=10)
        assert not winner.is_alive()

    def test_an_exception_reaches_only_the_thread_that_ran_fn(self):
        raised = []

        def fn():
            raise OSError("hash failed")

        call = once(fn)

        def run():
            try:
                call()
            except OSError as exc:
                raised.append((threading.current_thread(), str(exc)))

        winner = threading.Thread(target=run)
        winner.start()
        winner.join(timeout=10)
        assert not winner.is_alive()
        call()
        assert raised == [(winner, "hash failed")]
