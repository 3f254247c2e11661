"""``risloc`` CLI under the span tracer, for traced ``single`` runs.

Usage: python3 bench/traced_cli.py SPANS_JSON single --config ... (the
arguments after SPANS_JSON are the CLI's). The CLI's source must be on
PYTHONPATH. After the CLI returns, the coarse grid search it made is
repeated once on the warm table, so that the table build time can be
read as the cold call minus the warm one.
"""

import sys
import time

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import risloc.cli as cli
    import_s = time.perf_counter() - t0
    from risloc import estimator

    tracer = spans.Tracer()
    batch_fn = estimator.nf_grid_search_batch
    tracer.install()
    traced_batch = estimator.nf_grid_search_batch
    batches = []

    def keep_args(*args, **kwargs):
        batches.append((args, kwargs))
        return traced_batch(*args, **kwargs)

    estimator.nf_grid_search_batch = keep_args
    code = tracer.call("cli.main", cli.main, argv)
    if batches:
        args, kwargs = batches[-1]
        tracer.call("estimator.nf_grid_search_batch_warm", batch_fn,
                    *args, **kwargs)
    tracer.uninstall()
    spans.dump(tracer.spans, out_path,
               {"import_s": import_s,
                "per_span_s": tracer.per_span_cost()})
    return code


if __name__ == "__main__":
    sys.exit(main())
