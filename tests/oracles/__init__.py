"""Reference implementations the equivalence tests compare against.

Each module holds the one-at-a-time twin of a production path that
``repro`` runs in batch form:

* :mod:`tests.oracles.hsm`: the per-event HSM replay (``HSM.handle``
  over ``events_from_trace`` tuples) behind ``HSM.feed``;
* :mod:`tests.oracles.generator`: the scalar device placement and
  session packing behind the generator's array stages;
* :mod:`tests.oracles.records`: the Section 5.1 error strip and the
  Section 5.3 eight-hour dedupe over records, and a study's record views;
* :mod:`tests.oracles.analysis`: the record walks behind the
  ``*_from_batches`` analyses.

The benchmarks import these too; ``benchmarks/conftest.py`` puts the
repository root on ``sys.path`` so ``import tests.oracles`` works under
plain ``pytest`` as well as ``python -m pytest``.
"""
