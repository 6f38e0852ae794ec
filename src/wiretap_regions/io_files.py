"""Every file the package reads or writes: ``text_lines`` reads each
line-based format (``#`` comments and blank lines skipped), ``csv_text``
writes every CSV.  Channel, aux and split files hold ``key: value`` headers
plus matrix blocks: ``NAME:`` on its own line, then numeric rows; the
package reads them and writes none.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np

from .entropy_algebra import FactorStructure
from .errors import IoError, ParseError, ValidationError, WiretapError, numbered
from .info_core import ChannelSpec, VarId, take_stack
from .polytope_fm import SystemStack, VPolytope
from .regions_discrete import AuxJoint, SweepResult
from .regions_gaussian import CovSplit, GaussChannel, HGaussChannel

CSV_FMT = "%.12g"


def _fmt(x: float) -> str:
    return CSV_FMT % float(x)


def text_lines(text: str):
    """Yield ``(line number, line)`` for each line of ``text`` that holds
    anything but a ``#`` comment, with the comment and surrounding blanks
    stripped."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


class _Doc:
    """Parsed key/value headers and matrix blocks with line numbers."""

    def __init__(self, text: str):
        self.scalars: dict[str, tuple[str, int]] = {}
        self.blocks: dict[str, tuple[list[list[float]], int]] = {}
        current = None
        for no, line in text_lines(text):
            if line.endswith(":"):
                name = line[:-1].strip()
                if name in self.blocks:
                    raise ParseError(f"duplicate block {name!r}", line=no)
                self.blocks[name] = ([], no)
                current = name
                continue
            if ":" in line:
                key, val = (s.strip() for s in line.split(":", 1))
                if key in self.scalars:
                    raise ParseError(f"duplicate key {key!r}", line=no)
                self.scalars[key] = (val, no)
                current = None
                continue
            if current is None:
                raise ParseError(f"numeric row outside a block: {line!r}", line=no)
            try:
                row = [float(t) for t in line.split()]
            except ValueError:
                raise ParseError(f"bad numeric row {line!r}", line=no) from None
            if not all(map(math.isfinite, row)):
                raise ParseError(f"non-finite entry in row {line!r}", line=no)
            self.blocks[current][0].append(row)

    def scalar(self, key: str) -> str:
        if key not in self.scalars:
            raise ParseError(f"missing key {key!r}")
        return self.scalars[key][0]

    def matrix(self, name: str) -> np.ndarray:
        if name not in self.blocks:
            raise ParseError(f"missing matrix block {name!r}")
        rows, no = self.blocks[name]
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ParseError(f"ragged rows in block {name!r}", line=no)
        return np.array(rows, dtype=float)

    def tensor(self, name: str, shape) -> np.ndarray:
        """Block ``name`` read in row order into an array of ``shape``."""
        m = self.matrix(name)
        if m.size != math.prod(shape):
            raise ParseError(f"block {name!r} has {m.size} entries, expected "
                             f"{math.prod(shape)}", line=self.blocks[name][1])
        return m.reshape(shape)


def _parse_vars(spec: str) -> list[VarId]:
    toks = spec.split()
    if len(toks) % 2:
        raise ParseError(f"variable list {spec!r} must alternate name cardinality")
    out = []
    for i in range(0, len(toks), 2):
        try:
            out.append(VarId(toks[i], int(toks[i + 1])))
        except ValueError:
            raise ParseError(f"bad cardinality {toks[i+1]!r}") from None
    return out


def _stage_blocks(inp: VarId, outs) -> list[str]:
    """Block names of a cascade's stages: ``stage Y1|X``, ``stage Y2|Y1``,
    ``stage Z|Y2``."""
    chain = [inp.name] + [o.name for o in outs]
    return [f"stage {b}|{a}" for a, b in zip(chain, chain[1:])]


def _read(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e


@contextlib.contextmanager
def _model_from_file():
    """Report a model constructor's refusal of what a file says as a
    ValidationError, so the CLI exits 2; ParseError and ValidationError pass
    through unchanged."""
    try:
        yield
    except (ParseError, ValidationError):
        raise
    except WiretapError as e:
        raise ValidationError(str(e)) from e


def parse_channel_file(path):
    """Parse a channel file into a ChannelSpec, GaussChannel or HGaussChannel.

    Discrete channels may be given as three degraded cascade stages or as a
    dense kernel.  Gaussian matrices are validated for positive
    (semi)definiteness on construction.
    """
    doc = _Doc(_read(path))
    kind = doc.scalar("kind")
    with _model_from_file():
        if kind == "discrete":
            ins, outs = _parse_vars(doc.scalar("input")), _parse_vars(doc.scalar("outputs"))
            if len(ins) != 1 or len(outs) != 3:
                raise ValidationError("a channel needs exactly one input (X) and three "
                                      "outputs (Y1, Y2, Z)")
            inp = ins[0]
            names = _stage_blocks(inp, outs)
            if all(n in doc.blocks for n in names):
                return ChannelSpec(input=inp, outputs=tuple(outs),
                                   stages=tuple(doc.matrix(n) for n in names))
            shape = (inp.cardinality,) + tuple(o.cardinality for o in outs)
            return ChannelSpec(input=inp, outputs=tuple(outs), kernel=doc.tensor("kernel", shape))
        if kind == "gauss":
            return GaussChannel(S=doc.matrix("S"), Sigma1=doc.matrix("Sigma1"),
                                Sigma2=doc.matrix("Sigma2"), SigmaZ=doc.matrix("SigmaZ"))
        if kind == "gauss_h":
            return HGaussChannel(H1=doc.matrix("H1"), H2=doc.matrix("H2"),
                                 HZ=doc.matrix("HZ"))
    raise ParseError(f"unknown channel kind {kind!r}")


def parse_aux_file(path) -> AuxJoint:
    """Parse an aux file into an aux of one member; a refusal of the aux
    names no instance."""
    doc = _Doc(_read(path))
    if doc.scalar("kind") != "aux":
        raise ParseError("expected kind: aux")
    with _model_from_file(), numbered([()]):
        vars_ = tuple(_parse_vars(doc.scalar("vars")))
        table = doc.tensor("table", [1] + [v.cardinality for v in vars_])
        return AuxJoint(take_stack(vars_, table))


def parse_split_file(path) -> CovSplit:
    doc = _Doc(_read(path))
    if doc.scalar("kind") != "split":
        raise ParseError("expected kind: split")
    with _model_from_file():
        if "K" in doc.blocks:
            return CovSplit(K=doc.matrix("K"))
        return CovSplit(K0=doc.matrix("K0"), K1=doc.matrix("K1"), K2=doc.matrix("K2"))


def check_matches_channel(ch, part) -> None:
    """Raise ValidationError unless an aux joint's X alphabet matches a discrete
    channel's input and no aux variable is named like a channel output, or
    every matrix of a covariance split matches a Gaussian channel's dimension."""
    if isinstance(part, AuxJoint):
        clash = [n for n in part.table.names if n in ch.output_names]
        if clash:
            raise ValidationError(f"aux variables {', '.join(clash)} are named like "
                                  f"channel outputs")
        card = part.table.vars[part.table.axis("X")].cardinality
        if card != ch.input.cardinality:
            raise ValidationError(f"aux X has {card} symbols, the channel input "
                                  f"{ch.input.cardinality}")
        return
    d = ch.dim
    for name in ("K", "K0", "K1", "K2"):
        m = getattr(part, name)
        if m is not None and m.shape != (d, d):
            raise ValidationError(f"split {name} is {m.shape[0]}x{m.shape[1]}, "
                                  f"the channel is {d}x{d}")


def parse_dag_file(path) -> FactorStructure:
    """Factorization fixture: ``kind: dag`` and one ``node: NAME [PARENTS...]``
    line per variable, each variable named once."""
    parents = {}
    for no, line in text_lines(_read(path)):
        key, _, rest = line.partition(":")
        toks = rest.split()
        if key == "kind":
            if toks != ["dag"]:
                raise ParseError(f"expected kind: dag, got {line!r}", line=no)
            continue
        if key != "node":
            raise ParseError(f"expected node: lines, got {line!r}", line=no)
        if not toks:
            raise ParseError("empty node line", line=no)
        if toks[0] in parents:
            raise ParseError(f"duplicate node {toks[0]!r}", line=no)
        parents[toks[0]] = tuple(toks[1:])
    return FactorStructure(parents)


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def csv_text(header, rows) -> str:
    """A header and rows as CSV; fields holding commas or quotes are quoted,
    so every row parses to as many fields as the header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def region_csv_text(obj) -> str:
    """Deterministic CSV for a region stack, a vertex list or a sweep.

    The ``kind`` column distinguishes constraint, vertex, sample and
    hull_vertex rows, a stack's constraints member by member; floats use 12
    significant digits.  An empty polytope yields the header plus a single
    ``EMPTY`` note row.
    """
    if isinstance(obj, SystemStack):
        header = ["kind", "label", *obj.vars, "rhs"]
        rows = [["constraint", q.label or "", *(_fmt(q.coeff(v)) for v in obj.vars), _fmt(b)]
                for member in obj.rhs.tolist() for q, b in zip(obj.rows.ineqs, member)]
    elif isinstance(obj, VPolytope):
        header = ["kind", "label", *obj.vars, "rhs"]
        rows = [["vertex", f"v{i}", *map(_fmt, p), ""] for i, p in enumerate(obj.vertices)]
        if not rows:
            rows = [["note", "EMPTY"] + [""] * (len(obj.vars) + 1)]
    elif isinstance(obj, SweepResult):
        width = max([len(obj.rates)] + [len(consts) for _, _, consts, _ in obj.rows])
        header = ["kind", "id", "hash", "nverts", *(f"v{i}" for i in range(width))]
        rows = [["hull_vertex", i, "", "", *map(_fmt, p)]
                for i, p in enumerate(obj.hull_points)]
        rows += [["sample", idx, h, nv, *map(_fmt, consts)] for idx, h, consts, nv in obj.rows]
        rows = [r + [""] * (len(header) - len(r)) for r in rows]
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")
    return csv_text(header, rows)


def pretty_text(obj) -> str:
    """Terminal table rendering of the same objects."""
    if isinstance(obj, SystemStack):
        return "\n".join(f"  {q.label or '':10s} {q.lhs_text():28s} <= {_fmt(b)}"
                         for member in obj.rhs.tolist() for q, b in zip(obj.rows.ineqs, member))
    if isinstance(obj, VPolytope):
        if obj.vertices.shape[0] == 0:
            return "  (empty region)"
        head = "  " + "  ".join(f"{v:>12s}" for v in obj.vars)
        rows = ["  " + "  ".join(f"{x:12.6f}" for x in p) for p in obj.vertices]
        return "\n".join([head] + rows)
    if isinstance(obj, SweepResult):
        return (f"  samples: {len(obj.rows)}\n  cloud points: {obj.points.shape[0]}\n"
                f"  hull vertices: {obj.hull_points.shape[0]}")
    return str(obj)
