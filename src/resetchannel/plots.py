"""Plot-script emission: self-contained gnuplot files rendering the CSV
outputs of an experiment. No plotting happens inside the package itself;
re-emission is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

_COMMON = """set datafile separator ','
set key autotitle columnhead
set grid
set terminal pngcairo size 900,650
"""

_SCRIPTS = {
    "histogram.csv": (
        "histogram",
        """set xlabel '|lambda|'
set ylabel 'probability density'
set style fill solid 0.4
plot 'histogram.csv' using (0.5*($1+$2)):3:($2-$1) with boxes title 'spectrum', \\
     'histogram.csv' using (0.5*($1+$2)):4 with lines lw 2 title 'disk-law reference'
""",
    ),
    "spectrum.csv": (
        "spectrum",
        """set xlabel 'Re lambda'
set ylabel 'Im lambda'
set size ratio -1
plot 'spectrum.csv' using 2:3 with points pt 7 ps 0.6 title 'eigenvalues'
""",
    ),
    "bands.csv": (
        "bands",
        """set multiplot layout 2,1
set xlabel ''
set ylabel 'Re lambda'
plot 'bands.csv' using 1:3 with points pt 7 ps 0.4 notitle
set xlabel 'sweep parameter'
set ylabel 'Im lambda'
plot 'bands.csv' using 1:4 with points pt 7 ps 0.4 notitle
unset multiplot
""",
    ),
    "ep_fit_points.csv": (
        "ep_loglog",
        """set logscale xy
set xlabel 'parameter distance from the exceptional point'
set ylabel '|Im lambda|'
plot 'ep_fit_points.csv' using 2:3 with points pt 7 title 'splitting', \\
     'ep_fit_points.csv' using 2:(0.5*column(3)/column(3)*sqrt($2)) with lines dt 2 title 'sqrt guide'
""",
    ),
    "complex_count.csv": (
        "complex_count",
        """set xlabel 'sweep parameter'
set ylabel 'number of complex eigenvalues'
plot 'complex_count.csv' using 1:2 with linespoints pt 7 notitle
""",
    ),
    "qmi.csv": (
        "qmi",
        """set logscale y
set xlabel 'channel applications'
set ylabel 'mutual information'
plot for [case in system("awk -F, 'NR>1 {print $1}' qmi.csv | sort -u")] \\
     'qmi.csv' using 2:(stringcolumn(1) eq case ? $3 : 1/0) \\
     with linespoints title case
""",
    ),
    "phase_scan.csv": (
        "phase",
        """set logscale x
set xlabel 'field strength'
set ylabel 'final mutual information'
set y2label 'imbalance + 1'
set y2tics
plot 'phase_scan.csv' using 1:2 with linespoints title 'mutual information', \\
     'phase_scan.csv' using 1:3 axes x1y2 with linespoints title 'imbalance + 1'
""",
    ),
}


def emit_plots(output_dir) -> list[str]:
    """Write a gnuplot script ``<stem>.gp`` next to every known CSV in
    ``output_dir``: ``_COMMON``, ``set output '<stem>.png'``, its template.

    Raises FileNotFoundError when none of the expected CSVs are present.
    """
    out = Path(output_dir)
    written = []
    for csv_name, (stem, body) in _SCRIPTS.items():
        if (out / csv_name).exists():
            (out / f"{stem}.gp").write_text(f"{_COMMON}set output '{stem}.png'\n{body}")
            written.append(f"{stem}.gp")
    if not written:
        raise FileNotFoundError(f"no recognized experiment CSVs in {out}")
    return sorted(written)
