"""One measurement in a fresh process; prints one JSON line.

    python3 perfbench/worker.py import
    python3 perfbench/worker.py reconstruct INPUT OUTPUT COARSE_CELLS
    python3 perfbench/worker.py traced INPUT OUTPUT COARSE_CELLS SPANS_NPZ

`import` times `import curvrec.cli`, the set-up every CLI call pays.
`reconstruct` runs the file-to-file pipeline that `curvrec reconstruct`
runs (workers=1, every other setting at its default) and reports its wall
time and this process's peak RSS. `traced` does the same with every
module entry point wrapped in spans (see spans.py) and reports the
per-layer metrics. curvrec is imported from the src/ directory beside
this one, never from an installed copy.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv):
    sys.path.insert(0, str(SRC))
    mode = argv[0]
    if mode == "import":
        t0 = perf_counter()
        import curvrec.cli
        elapsed = perf_counter() - t0
        if not Path(curvrec.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"curvrec imported from {curvrec.cli.__file__}, not {SRC}")
        return {"import_s": elapsed}

    from curvrec.pipeline import PipelineConfig, run_pipeline

    config = PipelineConfig(input_path=argv[1], output_path=argv[2],
                            coarse_cells=int(argv[3]), workers=1)
    if mode == "reconstruct":
        t0 = perf_counter()
        run_pipeline(config)
        return {"wall_s": perf_counter() - t0, "peak_rss_mb": _peak_rss_mb()}

    import spans

    tracer = spans.Tracer()
    with spans.traced_pipeline(tracer):
        tracer.wrap(spans.ROOT, run_pipeline)(config)
    tracer.save(argv[4])
    names, dur, _ = tracer.durations()
    return {"wall_s": float(dur[names == spans.ROOT][0]), "peak_rss_mb": _peak_rss_mb(),
            "layers": spans.layer_metrics(tracer)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
