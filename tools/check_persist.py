#!/usr/bin/env python3
"""End-to-end check of the persistence + networking tier (the `persist`
ctest).

    check_persist.py --serve=build/tools/cai-serve \\
                     --batch=build/tools/cai-batch \\
                     --program=tools/testdata/fig1.imp

Four checks, all against the built binaries:

  1. warm restart   -- cai-batch over a generated corpus with
     --persist-dir, twice.  The directory must hold exactly one log file
     (results.log).  The second (cold-process, warm-disk) run must
     replay the log into the memory tier: result lines byte-identical to
     the first run modulo the "cached" flag, stats hit_rate_permille >=
     900, persist.replayed > 0.
  2. corruption     -- every other record of the log gets a payload byte
     flipped in place; the next run must still exit cleanly with
     byte-identical results (recomputed, not served wrong) and count
     every flipped record in persist.corrupt.
  3. stdio vs TCP   -- the same session over stdin and over a TCP
     connection (--listen) must produce byte-identical response lines.
  4. signal drain   -- SIGTERM to a --listen server with a persist log
     must exit 0, write a "shutdown" event to the event log, and leave
     the log flushed (the next cold process serves the job from disk).

Exit code: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

FAILURES = []


def fail(msg):
    print(f"check_persist: FAIL -- {msg}", file=sys.stderr)
    FAILURES.append(msg)


def ok(msg):
    print(f"check_persist: ok -- {msg}")


def run(cmd, stdin_text=None, timeout=300):
    return subprocess.run(cmd, input=stdin_text, capture_output=True,
                          text=True, timeout=timeout)


def normalize_cached(line):
    return re.sub(r'"cached":(true|false)', '"cached":?', line)


def is_stats(line):
    return '"stats":true' in line


def split_lines(stdout):
    return [l for l in stdout.splitlines() if l.strip()]


def start_serve(serve, extra, tmpdir, tag):
    """Starts cai-serve --listen on an ephemeral port; returns (proc, port)."""
    port_file = os.path.join(tmpdir, f"port-{tag}.txt")
    proc = subprocess.Popen(
        [serve, "--listen=127.0.0.1:0", f"--port-file={port_file}"] + extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for _ in range(100):
        if os.path.exists(port_file) and os.path.getsize(port_file) > 0:
            with open(port_file) as f:
                return proc, int(f.read().strip())
        if proc.poll() is not None:
            fail(f"serve ({tag}) exited {proc.returncode} before listening: "
                 f"{proc.stderr.read()}")
            return proc, None
        time.sleep(0.1)
    proc.kill()
    fail(f"serve ({tag}) never wrote its port file")
    return proc, None


def tcp_session(port, stdin_text, timeout=60):
    """Sends the whole session, returns reply lines (reads until EOF)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(stdin_text.encode())
        s.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return split_lines(data.decode())


LOG_NAME = "results.log"


def record_payloads(data):
    """(offset, length) of every record payload in a log file: a 24-byte
    header, then u32 length | u32 CRC-32 | payload per record."""
    pos, records = 24, []
    while pos < len(data):
        length = int.from_bytes(data[pos:pos + 4], "little")
        records.append((pos + 8, length))
        pos += 8 + length
    return records


BATCH_ARGS = ["--gen=10", "--gen-seed=42", "--domain=logical:affine,uf",
              "--repeat=2", "--stats"]


def check_warm_restart(batch, tmpdir):
    before = len(FAILURES)
    pdir = os.path.join(tmpdir, "persist-warm")
    cold = run([batch] + BATCH_ARGS + [f"--persist-dir={pdir}"])
    files = sorted(os.listdir(pdir)) if os.path.isdir(pdir) else []
    if files != [LOG_NAME]:
        fail(f"persist dir holds {files}, expected exactly [{LOG_NAME!r}]")
    warm = run([batch] + BATCH_ARGS + [f"--persist-dir={pdir}"])
    for tag, proc in (("cold", cold), ("warm", warm)):
        if proc.returncode not in (0, 1):
            fail(f"{tag} batch run exited {proc.returncode}: {proc.stderr}")
            return
    cold_lines = split_lines(cold.stdout)
    warm_lines = split_lines(warm.stdout)
    if len(cold_lines) != len(warm_lines):
        fail(f"cold run emitted {len(cold_lines)} lines, warm "
             f"{len(warm_lines)}")
        return
    for i, (c, w) in enumerate(zip(cold_lines, warm_lines)):
        if normalize_cached(c) != normalize_cached(w):
            fail(f"warm-restart line {i} differs beyond 'cached':\n"
                 f"  cold: {c}\n  warm: {w}")
            return
    # cai-batch keeps the result stream clean: --stats goes to stderr.
    stats = json.loads(next(l for l in split_lines(warm.stderr)
                            if is_stats(l)))
    rate = stats.get("cache", {}).get("hit_rate_permille", 0)
    if rate < 900:
        fail(f"warm-restart hit_rate_permille {rate} < 900")
    persist = stats.get("persist")
    if not persist:
        fail("warm stats line has no 'persist' block")
    elif persist.get("replayed", 0) < 1:
        fail(f"warm run replayed nothing from disk: {persist}")
    if len(FAILURES) == before:
        ok(f"warm restart byte-identical, hit rate {rate} permille, "
           f"{persist['replayed']} records replayed")
    return cold_lines


def check_corruption(batch, tmpdir, cold_lines):
    before = len(FAILURES)
    pdir = os.path.join(tmpdir, "persist-warm")
    path = os.path.join(pdir, LOG_NAME)
    with open(path, "rb") as f:
        data = bytearray(f.read())
    victims = record_payloads(data)[::2]
    if len(victims) < 2:
        fail(f"log holds too few records to corrupt: {len(victims)}")
        return
    for offset, length in victims:
        data[offset + length // 2] ^= 0x55
    with open(path, "wb") as f:
        f.write(data)
    flipped = len(victims)
    proc = run([batch] + BATCH_ARGS + [f"--persist-dir={pdir}"])
    if proc.returncode not in (0, 1):
        fail(f"corrupted-log run crashed (exit {proc.returncode}): "
             f"{proc.stderr}")
        return
    lines = split_lines(proc.stdout)
    if len(lines) != len(cold_lines):
        fail(f"corrupted-log run emitted {len(lines)} lines, expected "
             f"{len(cold_lines)}")
        return
    for i, (c, n) in enumerate(zip(cold_lines, lines)):
        if normalize_cached(c) != normalize_cached(n):
            fail(f"corrupted-log run line {i} differs -- a corrupt record "
                 f"must recompute, never serve wrong bytes:\n"
                 f"  ref: {c}\n  got: {n}")
            return
    stats = json.loads(next(l for l in split_lines(proc.stderr)
                            if is_stats(l)))
    corrupt = stats.get("persist", {}).get("corrupt", 0)
    if corrupt < flipped:
        fail(f"{flipped} flipped records but persist.corrupt is {corrupt}: "
             f"{stats.get('persist')}")
    if len(FAILURES) == before:
        ok(f"{flipped} flipped records -> {corrupt} corrupt records "
           f"skipped, results identical")


SESSION = None  # Built in main() from --program.


def check_stdio_vs_tcp(serve, tmpdir):
    # One worker pins the streaming order (results stream in completion
    # order; with one worker that IS submission order), so the transport
    # comparison is a strict byte-diff.
    before = len(FAILURES)
    stdio = run([serve, "--jobs=1"], SESSION)
    if stdio.returncode != 0:
        fail(f"stdio serve exited {stdio.returncode}: {stdio.stderr}")
        return
    proc, port = start_serve(serve, ["--jobs=1"], tmpdir, "tcp")
    if port is None:
        return
    try:
        tcp_lines = tcp_session(port, SESSION)
    finally:
        rc = proc.wait(timeout=60)
    if rc != 0:
        fail(f"tcp serve exited {rc}: {proc.stderr.read()}")
    stdio_lines = split_lines(stdio.stdout)
    if stdio_lines != tcp_lines:
        fail(f"stdio vs TCP responses differ:\n  stdio: {stdio_lines}\n"
             f"  tcp:   {tcp_lines}")
    if len(FAILURES) == before:
        ok(f"stdio and TCP byte-identical over {len(tcp_lines)} lines")


def check_signal_shutdown(serve, batch, program, tmpdir):
    before = len(FAILURES)
    pdir = os.path.join(tmpdir, "persist-signal")
    events = os.path.join(tmpdir, "signal-events.jsonl")
    proc, port = start_serve(
        serve, [f"--persist-dir={pdir}", f"--event-log={events}"],
        tmpdir, "signal")
    if port is None:
        return
    req = json.dumps({"id": 1, "name": "sig", "program_file": program,
                      "domain": "logical:affine,uf"}) + "\n"
    with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
        s.sendall(req.encode())
        reply = s.makefile("r").readline()
    if '"status":"verified"' not in reply:
        fail(f"pre-signal analyze did not verify: {reply!r}")
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not exit within 60s of SIGTERM")
        return
    if rc != 0:
        fail(f"SIGTERM exit code {rc}, want 0: {proc.stderr.read()}")
    with open(events) as f:
        shutdown_events = [json.loads(l) for l in f if '"shutdown"' in l]
    if not shutdown_events:
        fail(f"no 'shutdown' event in {events}")
    elif shutdown_events[-1].get("fields", {}).get("reason") != "signal":
        fail(f"shutdown event reason is not 'signal': {shutdown_events[-1]}")
    # The log was flushed on the way out: a cold process serves the same
    # job from disk without recomputing.
    probe = run([batch, "--domain=logical:affine,uf",
                 f"--persist-dir={pdir}", "--stats", program])
    if probe.returncode != 0:
        fail(f"post-signal probe exited {probe.returncode}: {probe.stderr}")
        return
    stats = json.loads(next(l for l in split_lines(probe.stderr)
                            if is_stats(l)))
    if stats.get("cache", {}).get("hits", 0) < 1:
        fail(f"post-signal probe recomputed -- log not flushed on SIGTERM: "
             f"{stats}")
    if len(FAILURES) == before:
        ok("SIGTERM drained, flushed the log and logged a shutdown event")


def main():
    global SESSION
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True)
    ap.add_argument("--batch", required=True)
    ap.add_argument("--program", required=True)
    args = ap.parse_args()

    requests = [
        {"id": 1, "name": "a", "program_file": args.program,
         "domain": "logical:affine,uf"},
        {"id": 2, "name": "b", "program_file": args.program,
         "domain": "logical:poly,uf"},
        {"id": 3, "name": "a-again", "program_file": args.program,
         "domain": "logical:affine,uf"},
        {"cmd": "stats"},
        {"cmd": "shutdown"},
    ]
    SESSION = "".join(json.dumps(r) + "\n" for r in requests)

    with tempfile.TemporaryDirectory(prefix="cai_persist_check_") as tmpdir:
        cold_lines = check_warm_restart(args.batch, tmpdir)
        if cold_lines:
            check_corruption(args.batch, tmpdir, cold_lines)
        check_stdio_vs_tcp(args.serve, tmpdir)
        check_signal_shutdown(args.serve, args.batch, args.program, tmpdir)

    if FAILURES:
        print(f"check_persist: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("check_persist: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
