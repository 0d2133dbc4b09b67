#!/usr/bin/env python3
"""Report every non-test function of the graf module that no binary links,
and every name and field that nothing uses.

Usage: python3 scripts/deadcode.py   (or: make deadcode), from the repo root.

It runs two passes and prints one "file:line: ..." line per finding. The
first is the type checker's, scripts/deadnames (go run ./scripts/deadnames
runs it alone, in a few seconds): exported names no other package names,
struct fields no non-test code reads, and the census of settable values
nothing but tests or the benchmark sets, which fails nothing. The second,
below, is the linker's, for functions.

It links every binary the repository has -- cmd/*, examples/*, the nested
benchmark module -- and every package's test binary, with inlining off
(-gcflags=all=-l, so a function the compiler would inline still appears as
a symbol) and the linker's reachability dump on (-ldflags=-dumpdep, one
"from -> to" line per edge it follows). A function declared in a package's
non-test files (as `go list` names them, so build constraints apply) that
appears in none of the dumps is printed as file:line, and the exit status
is 1. Generic instantiations are matched by their declaration: the shapes in
(*GobEncoder[go.shape.int]).Append are stripped before the lookup.
"""

import os
import re
import subprocess
import sys
import tempfile

MODULE = "graf"
FLAGS = ["-gcflags=all=-l", "-ldflags=-dumpdep"]

# A top-level function or method declaration, as gofmt writes it:
# func Name, func (r T) Name, func (r *T[K]) Name.
DECL = re.compile(r"^func\s+(?:\(\s*(?:\w+\s+)?(\*?)\s*(\w+)(?:\[[^\]]*\])?\s*\)\s*)?(\w+)")


def go_list():
    """Lists (import path, package name, directory, non-test Go files)."""
    out = subprocess.run(["go", "list", "-f", '{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles " "}}',
                          "./..."], check=True, capture_output=True, text=True).stdout
    return [line.split("\t") for line in out.splitlines()]


def declared(pkgs):
    """Yields (symbol, file:line) for each function of the module's packages."""
    for path, _, pkgdir, files in pkgs:
        for f in files.split():
            file = os.path.join(pkgdir, f)
            with open(file) as fh:
                for n, line in enumerate(fh, 1):
                    m = DECL.match(line)
                    if not m or m.group(3) in ("init", "_"):
                        continue
                    ptr, recv, name = m.groups()
                    if recv:
                        name = ("(*%s)." if ptr else "%s.") % recv + name
                    yield "%s.%s" % (path, name), "%s:%d" % (os.path.relpath(file), n)


def strip_shapes(sym):
    """Drops every [...] group: Map[go.shape.int] -> Map."""
    out, depth = [], 0
    for c in sym:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def linked(cmd, cwd, seen):
    """Runs one go build/test with the dump on; adds the module's symbols to seen."""
    proc = subprocess.Popen(cmd, cwd=cwd, stderr=subprocess.PIPE, stdout=subprocess.DEVNULL,
                            text=True, errors="replace")
    binary = ""
    errors = []
    for line in proc.stderr:
        if line.startswith("# "):
            # "# graf/cmd/grafd" heads a binary's dump: its main package links
            # as "main.", which names it here.
            binary = line[2:].strip()
            continue
        src, sep, dst = line.rstrip("\n").partition(" -> ")
        if not sep:
            errors.append(line)
            continue
        for sym in (src, dst):
            if sym.startswith("main."):
                sym = binary + sym[4:]
            if sym.startswith(MODULE + ".") or sym.startswith(MODULE + "/"):
                seen.add(strip_shapes(sym))
    if proc.wait() != 0:
        sys.stderr.write("".join(errors))
        sys.exit("deadcode: %s failed" % " ".join(cmd))


def main():
    root = os.getcwd()
    # The type checker's pass runs beside the builds below.
    names = subprocess.Popen(["go", "run", "./scripts/deadnames"], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    pkgs = go_list()
    mains = [path for path, name, _, _ in pkgs if name == "main"]
    seen = set()
    with tempfile.TemporaryDirectory() as tmp:
        linked(["go", "build"] + FLAGS + ["-o", os.path.join(tmp, "bin") + "/"] + mains, root, seen)
        linked(["go", "test", "-c"] + FLAGS + ["-o", os.path.join(tmp, "test") + "/", "./..."], root, seen)
        bench = os.path.join(root, "benchmark")
        linked(["go", "build"] + FLAGS + ["-o", os.path.join(tmp, "bench")], bench, seen)
        linked(["go", "test", "-c"] + FLAGS + ["-o", os.path.join(tmp, "bench.test")], bench, seen)
    report, errors = names.communicate()
    if names.returncode not in (0, 1):
        sys.stderr.write(errors)
        sys.exit("deadcode: scripts/deadnames failed")
    sys.stdout.write(report)
    sys.stderr.write(errors)
    dead = [(pos, sym) for sym, pos in declared(pkgs) if sym not in seen]
    for pos, sym in dead:
        print("%s: %s is linked by no binary or test binary" % (pos, sym))
    if dead:
        sys.exit("deadcode: %d function(s) nothing links; delete them, or call them from the code that needs them" % len(dead))
    if names.returncode != 0:
        sys.exit(1)
    print("deadcode: every function of %d packages is linked, and every name and field is used" % len(pkgs))


if __name__ == "__main__":
    main()
