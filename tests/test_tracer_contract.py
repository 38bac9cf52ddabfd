"""The library names that the benchmark's tracer wraps.

bench/run.py installs spans and call counters by attribute name, looking
each one up in its owner's __dict__: GF.mul, poly_mul and poly_eval,
expcode.rs_decode, simlab.iterative_decode, RsParams.syndromes and the
other layer boundaries. Some of these have no caller left in the library,
so only this test keeps a deletion or a rename from breaking
`bench/run.py --trace 1`.
"""

from pathlib import Path

from pgcodes import expcode
from pgcodes.galois import GF
from pgcodes.rscodec import RsParams

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_on_library_names_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracer

    inst = tracer.Instrument()
    try:
        run.install_spans(inst)
        run.install_galois_counts(inst)
        wrapped = list(inst._undo)
        assert {(getattr(o, "__name__", None), a) for o, a, _ in wrapped} >= {
            ("GF", "mul"),
            ("GF", "poly_mul"),
            ("GF", "poly_eval"),
            ("pgcodes.expcode", "rs_decode"),
            ("pgcodes.simlab", "iterative_decode"),
            ("RsParams", "syndromes"),
        }
        for owner, attr, original in wrapped:
            assert owner.__dict__[attr] is not original
        GF(3).mul(3, 5)
        expcode.rs_decode(RsParams(7, 3, field=GF(3)), [0] * 7)
        assert inst.counts["galois.mul.calls"] == 1
        assert "rscodec.rs_decode" in inst.summary()
    finally:
        inst.restore()
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original
