"""The paper's MADbench2 study (section IV-A, Tables VIII-X, Figs. 7-8).

Extracts the I/O model of MADbench2 (16 procs, 8KPIX, shared file),
evaluates how much of configurations A and B the application uses
(eq. 5), and renders the device-level activity series of Fig. 8.

Run:  python examples/madbench2_usage_study.py [--outdir artifacts]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.clusters import configuration_a, configuration_b
from repro.core.pipeline import (
    characterize_app,
    characterize_peaks_for,
    estimate_on,
    evaluate,
    measure_on,
)
from repro.report.figures import device_series_ascii, save_figure_artifacts
from repro.report.tables import phases_table, usage_table
from repro.simmpi.engine import Engine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=None,
                        help="directory for CSV artifacts (optional)")
    args = parser.parse_args()

    params = MADbench2Params()  # 8KPIX, 8 bins -> 32 MB rs on 16 procs

    # Table VIII / Fig. 7: the model.
    model, bundle = characterize_app(madbench2_program, 16, params,
                                     app_name="MADbench2")
    print(phases_table(model, title="Table VIII: I/O phases of MADbench2"))
    print()

    # Tables IX/X: usage on configurations A and B.
    for name, factory in [("configuration A", configuration_a),
                          ("configuration B", configuration_b)]:
        est = estimate_on(model, factory, config_name=name)
        measure, mmodel = measure_on(madbench2_program, 16, params,
                                     cluster_factory=factory,
                                     app_name="MADbench2")
        peaks = characterize_peaks_for(factory)
        ev = evaluate(mmodel, est, measure, peaks=peaks)
        print(usage_table(ev, title=f"System utilization on {name} "
                                    f"(BW_PK: W={peaks['write']:.0f} "
                                    f"R={peaks['read']:.0f} MB/s)"))
        print()

    # Fig. 8: run on configuration B with the device monitor attached.
    cluster = configuration_b()
    monitor = cluster.attach_monitor()
    engine = Engine(16, platform=cluster)
    engine.run(madbench2_program, params)
    print("Fig. 8: device activity on configuration B (iostat-style)")
    for dev in monitor.devices():
        print(device_series_ascii(monitor, dev, bucket=2.0, width=70))

    if args.outdir:
        written = save_figure_artifacts(Path(args.outdir), "madbench2",
                                        bundle=bundle, model=model,
                                        monitor=monitor)
        print("\nartifacts:")
        for path in written:
            print(f"  {path}")


if __name__ == "__main__":
    main()
