"""The documented top-level API surface stays importable and coherent."""

import ast
import inspect
from pathlib import Path

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        """Every export exists, and every exported class and function
        carries its own docstring (a dataclass without one gets a
        generated ``Name(field, ...)`` signature, which does not count)."""
        for name in repro.__all__:
            assert hasattr(repro, name), name
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                doc = (obj.__doc__ or "").strip()
                assert doc and not doc.startswith(f"{obj.__name__}("), (
                    f"repro.{name} has no docstring"
                )

    def test_readme_quickstart_surface(self):
        """The names the README quickstart uses exist where it says."""
        from repro import SUPA, SUPAConfig, InsLearnTrainer, load_dataset
        from repro.baselines import make_baseline
        from repro.eval import RankingEvaluator

        assert callable(make_baseline)
        assert callable(load_dataset)
        assert SUPA is not None and SUPAConfig is not None
        assert InsLearnTrainer is not None and RankingEvaluator is not None

    def test_paper_component_modules_exist(self):
        """Each paper component where DESIGN.md §3 places it: the engine's
        kernels (production) and the ``tests/oracle`` modules (the
        readable per-edge form)."""
        import repro.core.inslearn
        import repro.core.updater
        import repro.core.variants
        import repro.graph.metapath
        import repro.graph.sampling
        from repro.core.engine import kernels
        from tests.oracle import interactor, propagation, sampling, updater

        for name in (
            "target_forward",  # Eq. 5
            "target_backward",
            "interaction_rows",  # Eq. 7
            "edge_factors",  # Eq. 8-9
            "context_draw_rows",  # Eq. 10 and Eq. 12
        ):
            assert callable(getattr(kernels, name)), name
        assert callable(repro.core.updater.final_embedding)  # Eq. 6 / 14
        assert callable(repro.graph.sampling.sample_pass_walks)  # Eq. 1-3
        assert callable(updater.target_embedding)
        assert callable(interactor.interaction_loss)
        assert callable(propagation.propagation_loss)
        assert callable(sampling.sample_influenced_graph_compiled)

    def test_no_module_imports_a_private_name(self):
        """An ``_``-prefixed name is private to its module: no module of
        the package imports one from another (what two modules share is
        public, or it lives in one of them)."""
        package = Path(repro.__file__).parent
        found = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom):
                    found += [
                        f"{path.relative_to(package)}:{node.lineno} {alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_")
                    ]
        assert found == []
