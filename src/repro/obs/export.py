"""Exporters for metrics and span trees.

Two output shapes, both stdlib-only:

* :func:`prometheus_text` — renders a :class:`MetricsRegistry` in the
  Prometheus text exposition format (``# TYPE`` headers, counters with
  the ``_total`` suffix convention, histograms as summaries with
  ``quantile`` labels plus ``_sum``/``_count``), so a scrape endpoint or
  a node-exporter textfile collector can pick it up verbatim;
* :func:`metrics_to_jsonl` / :func:`spans_to_jsonl` — one JSON object
  per line, the shape log shippers ingest; span trees are flattened to
  parent-linked records via :meth:`Span.to_dict`.
"""

from __future__ import annotations

import json

# Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* — everything else
# becomes "_".  Label names allow no colon.
_NAME_OK = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _metric_name(name):
    sanitized = "".join(c if c in _NAME_OK else "_" for c in name)
    if not sanitized or sanitized[0] in "0123456789":
        sanitized = "_" + sanitized
    return sanitized


def _label_name(name):
    return _metric_name(name).replace(":", "_")


def _escape_label_value(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels, extra=None):
    pairs = [(key, labels[key]) for key in sorted(labels)]
    if extra:
        pairs.extend(extra)
    if not pairs:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (_label_name(key), _escape_label_value(value))
        for key, value in pairs
    )


def _number(value):
    if value is None:
        return "NaN"
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: Default cumulative-bucket upper bounds: a 1/2.5/5 log grid wide
#: enough for both second-scale latencies (1e-5 s and up) and Q-errors
#: (1 .. QERROR_CAP).
DEFAULT_BUCKET_BOUNDS = tuple(
    mantissa * (10.0 ** exponent)
    for exponent in range(-5, 7)
    for mantissa in (1.0, 2.5, 5.0)
)


def _le(bound):
    if bound == float("inf"):
        return "+Inf"
    return _number(bound)


def prometheus_text(registry, bucket_bounds=DEFAULT_BUCKET_BOUNDS):
    """The registry in the Prometheus text exposition format (v0.0.4).

    Counters get the ``_total`` suffix; histograms are exported twice:

    * as summaries (``quantile="0.5"``/``"0.95"`` sample lines plus
      ``_sum``/``_count``) under the metric's own name — the original
      shape, kept for backward compatibility;
    * as a sibling ``<name>_hist`` **histogram** family with proper
      cumulative ``_bucket{le=...}`` samples over ``bucket_bounds``
      (one name cannot legally carry both types, hence the sibling).
      Bucket counts are scaled from the retained samples up to the true
      observation count, so ``_bucket{le="+Inf"}`` always equals
      ``_count``.

    Metrics sharing a name emit one ``# TYPE`` header with one sample
    line per label set.  Pass ``bucket_bounds=()`` to suppress the
    histogram families.
    """
    lines = []
    by_name = {}
    for counter in registry.counters():
        by_name.setdefault(("counter", counter.name), []).append(counter)
    gauges = getattr(registry, "gauges", None)
    for gauge in (gauges() if callable(gauges) else ()):
        by_name.setdefault(("gauge", gauge.name), []).append(gauge)
    for histogram in registry.histograms():
        by_name.setdefault(("summary", histogram.name), []).append(histogram)
    for (kind, raw_name) in sorted(by_name):
        metrics = by_name[(kind, raw_name)]
        name = _metric_name(raw_name)
        if kind == "counter":
            name += "_total"
            lines.append("# TYPE %s counter" % name)
            for counter in metrics:
                lines.append(
                    "%s%s %s"
                    % (name, _render_labels(counter.labels),
                       _number(counter.value))
                )
        elif kind == "gauge":
            lines.append("# TYPE %s gauge" % name)
            for gauge in metrics:
                lines.append(
                    "%s%s %s"
                    % (name, _render_labels(gauge.labels),
                       _number(gauge.value))
                )
        else:
            lines.append("# TYPE %s summary" % name)
            for histogram in metrics:
                for pct, quantile in ((50, "0.5"), (95, "0.95")):
                    lines.append(
                        "%s%s %s"
                        % (
                            name,
                            _render_labels(histogram.labels,
                                           extra=[("quantile", quantile)]),
                            _number(histogram.percentile(pct)),
                        )
                    )
                labels = _render_labels(histogram.labels)
                lines.append(
                    "%s_sum%s %s" % (name, labels, _number(histogram.sum))
                )
                lines.append(
                    "%s_count%s %s"
                    % (name, labels, _number(histogram.count))
                )
            if bucket_bounds:
                lines.extend(
                    _histogram_family(name, metrics, bucket_bounds)
                )
    return "\n".join(lines) + ("\n" if lines else "")


def _histogram_family(name, histograms, bounds):
    """Cumulative-bucket rendering of one histogram name."""
    family = name + "_hist"
    lines = ["# TYPE %s histogram" % family]
    for histogram in histograms:
        items, total, count = histogram.buckets(bounds)
        for bound, cumulative in items:
            lines.append(
                "%s_bucket%s %d"
                % (
                    family,
                    _render_labels(histogram.labels,
                                   extra=[("le", _le(bound))]),
                    cumulative,
                )
            )
        labels = _render_labels(histogram.labels)
        lines.append("%s_sum%s %s" % (family, labels, _number(total)))
        lines.append("%s_count%s %d" % (family, labels, count))
    return lines


def write_prometheus(registry, path_or_stream):
    """Write :func:`prometheus_text` to a path or stream."""
    text = prometheus_text(registry)
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        with open(path_or_stream, "w", encoding="utf-8") as stream:
            stream.write(text)
    return text


def metrics_to_jsonl(registry, path_or_stream=None):
    """One JSON record per counter/histogram.

    Returns the list of records; when ``path_or_stream`` is given, also
    writes them as JSON Lines.
    """
    records = []
    for counter in registry.counters():
        records.append({
            "type": "counter",
            "name": counter.name,
            "labels": dict(counter.labels),
            "value": counter.value,
        })
    gauges = getattr(registry, "gauges", None)
    for gauge in (gauges() if callable(gauges) else ()):
        records.append({
            "type": "gauge",
            "name": gauge.name,
            "labels": dict(gauge.labels),
            "value": gauge.value,
        })
    for histogram in registry.histograms():
        record = {
            "type": "histogram",
            "name": histogram.name,
            "labels": dict(histogram.labels),
        }
        record.update(histogram.summary())
        records.append(record)
    _write_jsonl(records, path_or_stream)
    return records


def spans_to_jsonl(spans, path_or_stream=None):
    """Flatten span trees to parent-linked JSON records.

    ``spans`` may be one span or an iterable of (root) spans; each span's
    whole subtree is exported.  Returns the records; when
    ``path_or_stream`` is given, also writes them as JSON Lines.
    """
    if hasattr(spans, "iter_spans"):
        spans = [spans]
    records = []
    seen = set()
    for root in spans:
        for span in root.iter_spans():
            if id(span) in seen:
                continue
            seen.add(id(span))
            records.append(span.to_dict())
    _write_jsonl(records, path_or_stream)
    return records


def _write_jsonl(records, path_or_stream):
    if path_or_stream is None:
        return
    if hasattr(path_or_stream, "write"):
        _dump_lines(records, path_or_stream)
    else:
        with open(path_or_stream, "w", encoding="utf-8") as stream:
            _dump_lines(records, stream)


def _dump_lines(records, stream):
    for record in records:
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")
