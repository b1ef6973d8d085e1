"""Session and CLI integration of the parallel portfolio engine.

``Session.solve()`` without the parallel keywords must be byte-for-byte
the pre-existing sequential path; with ``jobs=1`` it must produce the
same answer while annotating the result with
:class:`~repro.search.parallel.PortfolioStats`; and ``mube solve
--jobs/--portfolio`` must surface the portfolio table.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.exceptions import SearchError
from repro.search import OptimizerConfig
from repro.session import Session

from ..search.test_optimizers import tiny_universe

CONFIG = OptimizerConfig(max_iterations=20, patience=12, seed=5)


def make_session(**kwargs) -> Session:
    defaults = dict(
        universe=tiny_universe(),
        max_sources=4,
        optimizer_config=CONFIG,
    )
    defaults.update(kwargs)
    return Session(**defaults)


class TestSessionPortfolio:
    def test_default_solve_has_no_portfolio_annotation(self):
        iteration = make_session().solve()
        assert iteration.result.portfolio is None

    def test_jobs_one_default_portfolio_matches_sequential(self):
        # jobs=1 with no portfolio spec is one seeded restart of the
        # session optimizer at the base seed — the sequential solve.
        sequential = make_session().solve()
        portfolio = make_session().solve(jobs=1)
        assert portfolio.solution == sequential.solution
        assert (
            portfolio.result.trajectory == sequential.result.trajectory
        )
        stats = portfolio.result.portfolio
        assert stats is not None
        assert len(stats.workers) == 1
        assert stats.jobs == 1

    def test_portfolio_string_builds_the_requested_workers(self):
        iteration = make_session().solve(jobs=1, portfolio="tabu:2,local:1")
        stats = iteration.result.portfolio
        assert [w.optimizer for w in stats.workers] == [
            "tabu", "tabu", "local",
        ]
        assert iteration.solution.quality == (
            stats.winner.result.solution.quality
        )

    def test_portfolio_alone_implies_the_portfolio_path(self):
        iteration = make_session().solve(portfolio="tabu:2")
        assert iteration.result.portfolio is not None
        assert len(iteration.result.portfolio.workers) == 2

    def test_stop_quality_alone_implies_the_portfolio_path(self):
        iteration = make_session().solve(stop_quality=0.0)
        assert iteration.result.portfolio is not None
        assert iteration.result.portfolio.early_stopped

    def test_portfolio_solve_warm_starts_from_history(self):
        session = make_session()
        first = session.solve()
        second = session.solve(jobs=1, portfolio="tabu:2")
        assert len(session.history) == 2
        assert second.result.portfolio is not None
        # The recorded iteration chain stays usable (diff, explain, ...).
        assert session.diff_last() is not None
        assert first.solution is session.history[0].solution

    def test_bad_portfolio_spec_surfaces_as_search_error(self):
        with pytest.raises(SearchError, match="unknown optimizer"):
            make_session().solve(jobs=1, portfolio="warp:2")

    def test_explain_still_works_on_a_portfolio_solve(self):
        session = make_session()
        iteration = session.solve(jobs=1, portfolio="tabu:2", explain=True)
        assert iteration.explanation is not None
        assert session.explain() is iteration.explanation


class TestSessionResilience:
    def test_checkpoint_alone_implies_the_portfolio_path(self, tmp_path):
        path = tmp_path / "solve.ckpt"
        iteration = make_session().solve(checkpoint=str(path))
        assert iteration.result.portfolio is not None
        assert path.exists()

    def test_checkpoint_resume_reproduces_the_solution(self, tmp_path):
        path = tmp_path / "solve.ckpt"
        first = make_session().solve(jobs=1, portfolio="local:2",
                                     checkpoint=str(path))
        second = make_session().solve(jobs=1, portfolio="local:2",
                                      checkpoint=str(path))
        assert second.solution.selected == first.solution.selected
        assert second.solution.objective == first.solution.objective
        assert second.result.portfolio.resumed_workers == 2

    def test_retries_alone_imply_the_portfolio_path(self):
        iteration = make_session().solve(retries=1)
        assert iteration.result.portfolio is not None
        assert iteration.result.portfolio.retries == 0

    def test_worker_timeout_alone_implies_the_portfolio_path(self):
        iteration = make_session().solve(worker_timeout=60.0)
        assert iteration.result.portfolio is not None
        assert iteration.result.portfolio.timeouts == 0


class TestSessionArgumentValidation:
    """Bad portfolio arguments raise on every path, before any solve."""

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            (dict(jobs=0), "jobs must be >= 1"),
            (dict(retries=-1), "retries must be >= 0"),
            (dict(jobs=1, retries=-1), "retries must be >= 0"),
            (dict(worker_timeout=0.0), "worker_timeout must be > 0"),
        ],
    )
    def test_rejected_before_the_path_is_chosen(self, kwargs, message):
        session = make_session()
        with pytest.raises(SearchError, match=message):
            session.solve(**kwargs)
        assert session.history == []


class TestCliResilience:
    def test_solve_checkpoint_twice_gives_identical_winners(
        self, capsys, tmp_path
    ):
        path = str(tmp_path / "cli.ckpt")
        args = [
            "solve", "--sources", "25", "--choose", "5",
            "--iterations", "10", "--jobs", "1", "--portfolio", "local:2",
            "--checkpoint", path,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out

        def selected(text):
            return [
                line for line in text.splitlines()
                if line.startswith("Selected sources") or "Q=" in line
            ]

        assert "[resumed]" in second
        assert selected(first)[:1] == selected(second)[:1]

    def test_retry_and_timeout_flags_are_accepted(self, capsys):
        status = main([
            "solve", "--sources", "25", "--choose", "5",
            "--iterations", "10", "--jobs", "1",
            "--worker-timeout", "120", "--retries", "2",
        ])
        assert status == 0
        assert "portfolio:" in capsys.readouterr().out


class TestCliPortfolio:
    def test_solve_prints_the_portfolio_table(self, capsys):
        status = main([
            "solve", "--sources", "25", "--choose", "5",
            "--iterations", "10", "--jobs", "1", "--portfolio", "tabu:2",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "portfolio: 2 workers, jobs=1" in out
        assert "* [" in out  # the winner marker

    def test_solve_without_jobs_prints_no_portfolio_table(self, capsys):
        status = main([
            "solve", "--sources", "25", "--choose", "5",
            "--iterations", "10",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "portfolio:" not in out
