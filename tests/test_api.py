"""Tests for the top-level public API."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.datasets
import repro.kernels
from repro import JOIN_METHODS, JoinStats, spatial_join
from repro.internal import brute_force_pairs


class TestSpatialJoin:
    @pytest.mark.parametrize("method", JOIN_METHODS)
    def test_all_methods_agree(self, method, small_pair):
        left, right = small_pair
        truth = set(brute_force_pairs(left, right))
        res = spatial_join(left, right, 8192, method=method)
        assert res.pair_set() == truth
        assert not res.has_duplicates()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            spatial_join([], [], 1000, method="voronoi")

    def test_kwargs_forwarded(self, small_pair):
        left, right = small_pair
        res = spatial_join(
            left, right, 8192, method="pbsm", internal="sweep_trie", dedup="sort"
        )
        assert res.stats.algorithm == "PBSM(sweep_trie,PD)"

    def test_workers_run_rpm_only(self, small_pair):
        left, right = small_pair
        parallel = spatial_join(
            left, right, 8192, workers=2, executor="simulated", dedup="rpm"
        )
        assert sorted(parallel.pairs) == sorted(brute_force_pairs(left, right))
        for dedup in ("sort", "twolayer"):
            with pytest.raises(ValueError, match="Reference Point Method only"):
                spatial_join(left, right, 8192, workers=2, dedup=dedup)
        with pytest.raises(ValueError, match="Reference Point Method only"):
            repro.PBSM(8192, workers=2, dedup="sort")
        with pytest.raises(ValueError, match="dedup must be one of"):
            repro.PBSM(8192, dedup="twolayer")

    def test_scheduler_option_is_gone(self, small_pair):
        left, right = small_pair
        with pytest.raises(TypeError):
            spatial_join(left, right, 8192, workers=2, scheduler="stealing")

    def test_backend_gate_is_gone(self):
        """One backend: no switch selects another, in any of its spellings."""
        script = (
            "from repro import spatial_join\n"
            "from tests.conftest import random_kpes\n"
            "stats = spatial_join(random_kpes(200, 11), random_kpes(200, 22, 10_000), 8192).stats\n"
            "print(stats.algorithm)\n"
        )
        root = Path(__file__).resolve().parents[1]
        gated = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src"), "REPRO_DISABLE_NUMPY": "1"},
        )
        assert gated.returncode == 0, gated.stderr
        assert gated.stdout.split() == ["PBSM(sweep_numpy,RPM)"]
        for name in (
            "HAVE_NUMPY", "active_backend", "cpu_count", "get_numpy", "numpy_backend",
            "numpy_enabled", "python_backend", "python_forward_scan", "require_numpy",
            "set_numpy_enabled", "backend",
        ):  # fmt: skip
            assert not hasattr(repro.kernels, name), name
        assert not hasattr(repro.datasets, "HAVE_GENERATORS")
        assert "backend" not in {field.name for field in dataclasses.fields(JoinStats)}

    def test_version_exported(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        for package in packages:
            for name in getattr(package, "__all__", ()):
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_mb_helper(self):
        assert repro.mb(1) == 2**20
