"""Exporters: Chrome-trace JSON, flat metrics JSON, and a text summary.

The timeline export follows the Chrome Trace Event Format (the JSON
object form: ``{"traceEvents": [...]}``), which both ``chrome://tracing``
and Perfetto (https://ui.perfetto.dev) open directly.  Conventions:

* one **process row per producing OS process** — pid 0 is the driver (or
  the whole simulator), real-backend workers get their own pids;
* one **thread row per protocol node** (``tid = node + 1``; tid 0 is the
  driver thread), so an m-node run renders as m parallel lanes;
* spans become complete (``"ph": "X"``) events carrying node/phase/layer
  in ``args``; simulator messages land on a synthetic "network" process
  (one lane per destination node) so fan-in congestion is visible;
* timestamps are microseconds from the earliest event, whichever clock
  (virtual or wall) produced them — the schema is backend-agnostic.

The full metrics registry rides along under a top-level ``"metrics"``
key (trace viewers ignore unknown keys), so one file carries both the
timeline and the per-(phase, layer) counters.

:func:`validate_chrome_trace` is the schema gate used by CI and the
tests: it checks the structural contract above and returns a list of
human-readable problems (empty = valid).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .observer import Observer

__all__ = ["chrome_trace", "metrics_json", "text_summary", "validate_chrome_trace"]

#: Synthetic pid hosting simulator message lanes in the exported trace.
NET_PID = 99

_VALID_PH = {"X", "M", "C", "B", "E", "i", "b", "e", "n", "s", "t", "f"}


def _t0(obs: Observer) -> float:
    """Earliest timestamp across all events (the export zero)."""
    times = [sp.start for sp in obs.spans]
    times += [ev.sent_at for ev in obs.messages]
    times += [s.t for s in getattr(obs, "telemetry", ())]
    return min(times) if times else 0.0


def _name_row(kind: str, pid: int, tid: int, name: str) -> Dict[str, Any]:
    """A ``process_name`` / ``thread_name`` metadata event."""
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}


def _complete(name: str, cat: str, start: float, end: float, pid: int, tid: int,
              args: Dict[str, Any], t0: float) -> Dict[str, Any]:
    """A complete (``"X"``) event over ``[start, end]`` on the observer clock."""
    return {
        "name": name, "cat": cat, "ph": "X", "ts": (start - t0) * 1e6,
        "dur": max(end - start, 0.0) * 1e6, "pid": pid, "tid": tid, "args": args,
    }


def chrome_trace(obs: Observer, *, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Render an observer as a Chrome-trace JSON object (see module doc)."""
    t0 = _t0(obs)
    events: List[Dict[str, Any]] = []

    pids = sorted({sp.pid for sp in obs.spans} | set(obs.pid_names) | {0})
    for pid in pids:
        events.append(_name_row("process_name", pid, 0, obs.pid_names.get(pid, f"proc {pid}")))
    for pid, node in sorted({(sp.pid, sp.node) for sp in obs.spans}):
        events.append(
            _name_row("thread_name", pid, node + 1, "driver" if node < 0 else f"node {node}")
        )

    for sp in obs.spans:
        args: Dict[str, Any] = {"node": sp.node, "phase": sp.phase, "layer": sp.layer}
        args.update(sp.args)
        events.append(
            _complete(sp.name, sp.phase or "span", sp.start, sp.end, sp.pid, sp.node + 1, args, t0)
        )

    if obs.messages:
        events.append(_name_row("process_name", NET_PID, 0, "network"))
        for dst in sorted({ev.dst for ev in obs.messages}):
            events.append(_name_row("thread_name", NET_PID, dst + 1, f"→ node {dst}"))
        for ev in obs.messages:
            end = ev.delivered_at if ev.delivered_at is not None else ev.sent_at
            args = {
                "src": ev.src, "dst": ev.dst, "nbytes": ev.nbytes,
                "phase": ev.phase, "layer": ev.layer,
            }
            events.append(
                _complete(f"{ev.src}→{ev.dst}", ev.phase or "net", ev.sent_at, end,
                          NET_PID, ev.dst + 1, args, t0)
            )

    # Telemetry samples render as Perfetto counter tracks: one "C" event
    # per (sample, metric), args keyed by flattened label set so every
    # labelled series gets its own stacked line under the metric's track.
    # Counters chart the per-interval delta, gauges the sampled value.
    for s in getattr(obs, "telemetry", ()):
        pid = 0 if s.node < 0 else s.node + 1
        for series in (s.counters, s.gauges):
            for name in sorted(series):
                args = {
                    (",".join(f"{k}={v}" for k, v in key) or "value"): val
                    for key, val in sorted(series[name].items(), key=lambda kv: str(kv[0]))
                }
                events.append(
                    {"name": name, "ph": "C", "ts": (s.t - t0) * 1e6, "pid": pid,
                     "tid": 0, "args": args}
                )

    other = {"observer": obs.name}
    if meta:
        other.update(meta)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
        "metrics": obs.metrics.as_dict(),
    }


def metrics_json(obs: Observer, *, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Flat metrics document for regression tracking (diffable run to run)."""
    phases: Dict[str, Dict[str, float]] = {}
    for sp in obs.spans:
        key = sp.phase or sp.name
        agg = phases.setdefault(key, {"spans": 0, "busy_seconds": 0.0})
        agg["spans"] += 1
        agg["busy_seconds"] += sp.duration
    doc: Dict[str, Any] = {
        "observer": obs.name,
        "spans": {"total": len(obs.spans), "by_phase": dict(sorted(phases.items()))},
        "messages": {"delivered": len(obs.messages)},
        "metrics": obs.metrics.as_dict(),
    }
    if meta:
        doc["meta"] = meta
    return doc


def text_summary(obs: Observer) -> str:
    """Quick-look report: phase spans, the traffic matrix, latency tails."""
    lines = [f"observability summary — {obs.name}"]

    phases: Dict[str, List[float]] = {}
    for sp in obs.spans:
        phases.setdefault(sp.phase or sp.name, []).append(sp.duration)
    if phases:
        lines.append(f"  spans: {len(obs.spans)} across {len(phases)} phase(s)")
        for phase, durs in sorted(phases.items()):
            lines.append(
                f"    {phase:>16}  {len(durs):>5} spans   "
                f"busy {sum(durs) * 1e3:10.3f} ms"
            )
    else:
        lines.append("  spans: none recorded")

    net = obs.metrics.counter("net.bytes")
    self_net = obs.metrics.counter("net.self_bytes")
    msgs = obs.metrics.counter("net.messages")
    if len(net) or len(self_net):
        lines.append("  traffic by (phase, layer):")
        cells = {tuple(l.get(k) for k in ("phase", "layer")): v for l, v in net.items()}
        for l, v in self_net.items():
            key = (l.get("phase"), l.get("layer"))
            cells[key] = cells.get(key, 0) + v
        for (phase, layer), nbytes in sorted(cells.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            n = msgs.value(phase=phase, layer=layer)
            lines.append(
                f"    {str(phase):>16} L{layer}  {nbytes:14,.0f} B  {n:6.0f} msgs"
            )

    lat = obs.metrics.histogram("net.latency")
    for labels, summ in lat.items():
        if summ.get("count"):
            lines.append(
                f"  latency[{labels.get('phase', '')}]: "
                f"p50 {summ['p50'] * 1e3:.3f} ms  p99 {summ['p99'] * 1e3:.3f} ms  "
                f"({summ['count']} msgs)"
            )

    for name in ("faults.resent", "faults.injected", "faults.duplicates_dropped"):
        c = obs.metrics.counter(name)
        if len(c):
            lines.append(f"  {name}: {c.total():.0f}")
    return "\n".join(lines)


def validate_chrome_trace(doc: Any) -> List[str]:
    """Structural schema check of a Chrome-trace JSON object.

    Returns a list of problems (empty = the document is a well-formed
    trace that Perfetto/chrome://tracing will load).  Used by CI on the
    artifacts of the instrumented end-to-end run.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["top level must be a JSON object with a 'traceEvents' key"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    if not events:
        errors.append("'traceEvents' is empty")
    # Duration ("B"/"E") events must nest LIFO per (pid, tid) lane — an
    # "E" without a matching open "B" (or with a different name than the
    # span it would close) renders as garbage in trace viewers.
    open_spans: Dict[tuple, List[tuple]] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _VALID_PH:
            errors.append(f"{where}: bad or missing 'ph' {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing event 'name'")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                errors.append(f"{where}: '{field}' must be an integer")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: 'args' must be an object")
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: 'X' event needs numeric ts >= 0")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: 'X' event needs numeric dur >= 0")
        elif ph == "C":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: 'C' event needs numeric ts >= 0")
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"{where}: 'C' event needs a non-empty args object")
            elif any(not isinstance(v, (int, float)) for v in args.values()):
                errors.append(f"{where}: 'C' event args values must be numeric")
        elif ph == "M":
            if ev.get("name") in ("process_name", "thread_name") and not isinstance(
                ev.get("args", {}).get("name"), str
            ):
                errors.append(f"{where}: metadata event needs args.name")
        elif ph in ("B", "E"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: '{ph}' event needs numeric ts >= 0")
                continue
            lane = (ev.get("pid"), ev.get("tid"))
            stack = open_spans.setdefault(lane, [])
            if ph == "B":
                stack.append((ev.get("name"), ts, i))
            else:
                if not stack:
                    errors.append(
                        f"{where}: 'E' with no open 'B' on (pid={lane[0]}, "
                        f"tid={lane[1]})"
                    )
                    continue
                b_name, b_ts, b_i = stack.pop()
                if ev.get("name") not in (None, b_name):
                    errors.append(
                        f"{where}: 'E' name {ev.get('name')!r} does not match "
                        f"open 'B' {b_name!r} (traceEvents[{b_i}]) — out-of-order "
                        f"B/E nesting"
                    )
                elif ts < b_ts:
                    errors.append(
                        f"{where}: 'E' at ts={ts} closes 'B' "
                        f"(traceEvents[{b_i}]) that starts later at ts={b_ts}"
                    )
    for (pid, tid), stack in sorted(open_spans.items(), key=lambda kv: str(kv[0])):
        for name, _, b_i in stack:
            errors.append(
                f"traceEvents[{b_i}]: 'B' {name!r} on (pid={pid}, tid={tid}) "
                f"never closed by an 'E'"
            )
    if "metrics" in doc and not isinstance(doc["metrics"], dict):
        errors.append("'metrics' must be an object when present")
    return errors
