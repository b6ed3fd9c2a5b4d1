# Convenience targets for the RegHD reproduction.

PYTHON ?= python

.PHONY: install test bench perfbench examples reproduce clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The tier-1 suite, run from source.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Every benchmark test, including the ones without the `benchmark`
# fixture (acceptance bounds, overhead bounds, gate checks).
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/

# The repo benchmark's own tests (REPRO_BACKEND cleared, as in CI).
perfbench:
	env -u REPRO_BACKEND $(PYTHON) -m pytest perfbench -q

# Run every example end to end (a few minutes total).
examples:
	set -e; for f in examples/*.py; do echo "=== $$f ==="; PYTHONPATH=src $(PYTHON) $$f; done

# Regenerate everything EXPERIMENTS.md quotes and capture the logs.
reproduce:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ 2>&1 | tee bench_output.txt
	@echo "benchmark tables written under benchmarks/results/"

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
