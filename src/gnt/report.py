"""Human-readable rendering of metrics documents.

Markdown mirrors the layout of the result tables this harness reproduces:
(M, F, N) triplets to two decimals, deltas to three, flagged deltas in bold.
The json format is the metrics document itself and is lossless.
"""

from __future__ import annotations

import csv
import io
from typing import Mapping

from .formats import metrics_doc_to_text


def _f2(value) -> str:
    return f"{float(value):.2f}"


def _f3(value) -> str:
    number = float(value)
    if round(number, 3) == 0:
        number = 0.0
    return f"{number:.3f}"


def _triplet(breakdown: Mapping) -> str:
    return f"({_f2(breakdown['m'])}, {_f2(breakdown['f'])}, {_f2(breakdown['n'])})"


def _delta(value, significant: bool) -> str:
    text = _f3(value)
    return f"**{text}**" if significant else text


def _strategy_cells(breakdown: Mapping) -> list[str]:
    if breakdown["n1"] is None:
        return ["-"] * 5
    return [_f2(breakdown[key]) for key in ("n1", "n2", "n3", "n4", "n5")]


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join(" --- " for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def _entries(section: Mapping | None):
    """Each family's (name, entry) of a by-family section, then ("macro", entry); none for a null section."""
    if section is None:
        return
    for family in section["families"]:
        yield family, section["per_family"][family]
    yield "macro", section["macro"]


def _response_cells(response: Mapping) -> list[str]:
    return [
        _triplet(response["det"]),
        _triplet(response["amb"]),
        _delta(response["delta_m"], response["significant_m"]),
        _f3(response["delta_f"]),
        _delta(response["delta_n"], response["significant_n"]),
    ]


_RESPONSE_HEADER = ["Family", "(M, F, N) Det", "(M, F, N) Amb", "ΔM", "ΔF", "ΔN"]


def _render_markdown(doc: Mapping) -> str:
    lines = [f"# Gender-neutrality report: {doc['system']} ({doc['lang'].upper()})", ""]
    lines.append(f"Flagged deltas (bold) reach |Δ| >= {doc['threshold']}.")
    lines.append("")

    lines.append("## Baseline gender neutrality (gender-determined sources)")
    lines.append("")
    header = ["Family", "M", "F", "N", "N1", "N2", "N3", "N4", "N5", "Classified", "Unmatched rate"]
    rows = [
        [family, _f2(breakdown["m"]), _f2(breakdown["f"]), _f2(breakdown["n"])]
        + _strategy_cells(breakdown)
        + [str(breakdown["count"]), _f2(breakdown["u"])]
        for family, breakdown in _entries(doc["baseline"])
    ]
    lines += _table(header, rows)
    lines.append("")

    omission, active = doc["omission_response"], doc["active_response"]
    for title, section in (
        ("Response to gender ambiguity by omission (I/you)", omission),
        ("Response to active gender ambiguity (singular they)", active),
    ):
        lines.append(f"## {title}")
        lines.append("")
        lines += _table(_RESPONSE_HEADER, [[family] + _response_cells(entry) for family, entry in _entries(section)])
        lines.append("")

    lines.append("## Strategy shift by type")
    lines.append("")
    shift_rows = [
        [f"{name} (macro)"] + [_f3(v) for v in section["macro"]["delta_ni"]]
        for name, section in (("omission", omission), ("active", active))
        if section is not None and section["macro"]["delta_ni"] is not None
    ]
    lines += _table(["Condition", "ΔN1", "ΔN2", "ΔN3", "ΔN4", "ΔN5"], shift_rows)
    lines.append("")

    lines.append("## Stereotype effects (adverb-cued speech)")
    lines.append("")
    stereo = doc["stereotype"]
    stereo_rows = []
    if stereo is not None:
        stereo_rows.append(
            [
                _triplet(stereo["neutral"]),
                _triplet(stereo["stereo_m"]),
                _triplet(stereo["stereo_f"]),
                _delta(stereo["delta_g_avg"], stereo["significant_g"]),
                _f3(stereo["delta_n_avg"]),
            ]
        )
    lines += _table(["(M, F, N) Neutral", "(M, F, N) StereoM", "(M, F, N) StereoF", "ΔG_avg", "ΔN_avg"], stereo_rows)
    lines.append("")

    lines.append("## Coverage")
    lines.append("")
    coverage = doc["coverage"]
    coverage_rows = [
        [subset, str(cell["classified"]), str(cell["unmatched"]), _f2(cell["unmatched_rate"])]
        for subset, cell in coverage["subsets"].items()
    ]
    lines += _table(["Subset", "Classified", "Unmatched", "Unmatched rate"], coverage_rows)
    lines.append("")
    lines.append(f"Orphan translations: {coverage['orphan_translations']}")
    lines.append(f"Missing translations: {coverage['missing_translations']}")
    lines.append("")
    return "\n".join(lines)


_CSV_COLUMNS = [
    "section", "subset",
    "m_det", "f_det", "n_det", "n1", "n2", "n3", "n4", "n5",
    "m_amb", "f_amb", "n_amb",
    "delta_m", "delta_f", "delta_n",
    "delta_n1", "delta_n2", "delta_n3", "delta_n4", "delta_n5",
    "significant_m", "significant_n",
    "delta_g_avg", "delta_n_avg",
    "classified", "unmatched", "unmatched_rate",
]


def _render_csv(doc: Mapping) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()

    def breakdown_cells(breakdown: Mapping, prefix: str) -> dict:
        cells = {f"m_{prefix}": breakdown["m"], f"f_{prefix}": breakdown["f"], f"n_{prefix}": breakdown["n"]}
        if prefix == "det" and breakdown["n1"] is not None:
            cells.update({key: breakdown[key] for key in ("n1", "n2", "n3", "n4", "n5")})
        return cells

    for family, breakdown in _entries(doc["baseline"]):
        writer.writerow(
            {"section": "baseline", "subset": family, "classified": breakdown["count"],
             "unmatched": breakdown["u_count"], "unmatched_rate": breakdown["u"],
             **breakdown_cells(breakdown, "det")}
        )
    for section_name, key in (("omission", "omission_response"), ("active", "active_response")):
        for family, response in _entries(doc[key]):
            row = {
                "section": section_name,
                "subset": family,
                **breakdown_cells(response["det"], "det"),
                **breakdown_cells(response["amb"], "amb"),
                "delta_m": response["delta_m"],
                "delta_f": response["delta_f"],
                "delta_n": response["delta_n"],
                "significant_m": str(response["significant_m"]).lower(),
                "significant_n": str(response["significant_n"]).lower(),
            }
            if response["delta_ni"] is not None:
                row.update({f"delta_n{i + 1}": v for i, v in enumerate(response["delta_ni"])})
            writer.writerow(row)
    stereo = doc["stereotype"]
    if stereo is not None:
        for subset in ("neutral", "stereo_m", "stereo_f"):
            writer.writerow({"section": "stereotype", "subset": subset, **breakdown_cells(stereo[subset], "det")})
        writer.writerow(
            {"section": "stereotype", "subset": "effect",
             "delta_g_avg": stereo["delta_g_avg"], "delta_n_avg": stereo["delta_n_avg"]}
        )
    for subset, cell in doc["coverage"]["subsets"].items():
        writer.writerow(
            {"section": "coverage", "subset": subset, "classified": cell["classified"],
             "unmatched": cell["unmatched"], "unmatched_rate": cell["unmatched_rate"]}
        )
    return buffer.getvalue()


_RENDERERS = {"md": _render_markdown, "csv": _render_csv, "json": metrics_doc_to_text}


def render_report(doc: Mapping, fmt: str = "md") -> str:
    """Render a metrics document; fmt is one of md, csv or json."""
    try:
        render = _RENDERERS[fmt.lower()]
    except KeyError:
        raise ValueError(f"unknown report format {fmt!r}; use md, csv or json") from None
    return render(doc)
