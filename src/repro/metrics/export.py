"""Machine-readable export of one run's report.

:func:`report_to_json` serializes a
:class:`~repro.runtime.report.RunReport`; the schema is identical for
every execution backend, which the CI backend-matrix job asserts.  Figure
data is exported by the experiments CLI itself
(``cli.export_figure_json``, the ``--export`` flag).
"""

from __future__ import annotations

import json


def report_to_json(report) -> str:
    """JSON document for one run's report, keys sorted for stable diffs.

    Duck-typed on ``as_dict()`` rather than annotated with
    :class:`~repro.runtime.report.RunReport` so this base-layer module
    keeps importing nothing from the runtime packages.
    """
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)
