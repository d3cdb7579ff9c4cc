import pytest

from catci.bench import (
    BenchConfig,
    BenchRecord,
    emit_report,
    parse_report,
    run_bench,
    scenario_id,
)


class TestBenchConfig:
    def test_defaults_follow_standard_grid(self):
        cfg = BenchConfig()
        assert cfg.test_counts == (500, 1000, 2000, 3000, 5000)
        assert cfg.sample_sizes == (3000, 5000, 10000)
        assert cfg.scenarios == ((3, 4, 2), (3, 4, 2, 4), (3, 4, 2, 4, 4))
        assert cfg.repetitions == 50
        assert cfg.methods == ("closed_form", "ipf")

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(test_counts=())
        with pytest.raises(ValueError):
            BenchConfig(repetitions=0)
        with pytest.raises(ValueError):
            BenchConfig(methods=("nonsense",))
        with pytest.raises(ValueError):
            BenchConfig(scenarios=((3,),))
        with pytest.raises(ValueError, match="scenarios must be nonempty"):
            BenchConfig(scenarios=())
        with pytest.raises(ValueError, match="Z strata"):
            BenchConfig(scenarios=((3, 4) + (4,) * 13,))
        with pytest.raises(ValueError, match="seed"):
            BenchConfig(seed=-1)


class TestScenarioId:
    def test_format(self):
        assert scenario_id((3, 4, 2, 4, 4)) == "X3-Y4-Z2x4x4"
        assert scenario_id((3, 4)) == "X3-Y4"


def _quick_config(**kw):
    base = dict(
        test_counts=(5,),
        sample_sizes=(300,),
        scenarios=((3, 4, 2),),
        repetitions=2,
        methods=("closed_form",),
    )
    base.update(kw)
    return BenchConfig(**base)


class TestRunBench:
    def test_single_cell_baseline_is_one(self):
        records = run_bench(_quick_config())
        assert len(records) == 1
        assert records[0].normalized == 1.0
        assert records[0].mean_seconds > 0
        assert records[0].scenario == "X3-Y4-Z2"

    def test_record_count_and_order(self):
        cfg = _quick_config(
            test_counts=(3, 6),
            sample_sizes=(200, 300),
            methods=("closed_form", "ipf"),
        )
        records = run_bench(cfg)
        assert len(records) == 1 * 2 * 2 * 2
        keys = [(r.scenario, r.n, r.tests, r.method) for r in records]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2], k[3]))
        for r in records:
            if r.method == "closed_form":
                assert r.normalized == 1.0

    def test_doubling_tests_scales_time(self):
        cfg = _quick_config(
            test_counts=(300, 600), sample_sizes=(2000,), repetitions=3
        )
        # wall-clock measurement on a shared box: allow two retries for
        # scheduler noise before failing the 25% linearity band
        for attempt in range(3):
            records = run_bench(cfg)
            by_t = {r.tests: r.mean_seconds for r in records}
            ratio = by_t[600] / by_t[300]
            if 2.0 * 0.75 <= ratio <= 2.0 * 1.25:
                break
        assert 2.0 * 0.75 <= ratio <= 2.0 * 1.25


class TestEmitReport:
    def _records(self):
        return [
            BenchRecord("X3-Y4-Z2", 3000, 500, "ipf", 0.1234567, 1.2345),
            BenchRecord("X3-Y4-Z2", 3000, 500, "closed_form", 0.1, 1.0),
        ]

    def test_tsv_sorted_and_parsable(self):
        text = emit_report(self._records(), format="tsv")
        lines = text.splitlines()
        assert lines[0] == "scenario\tn\tT\tmethod\tmean_seconds\tnormalized"
        assert lines[1].split("\t")[3] == "closed_form"  # sorted before ipf
        parsed = parse_report(text)
        assert [r.method for r in parsed] == ["closed_form", "ipf"]
        assert parsed[1].normalized == pytest.approx(1.2345, abs=5e-4)
        assert parsed[1].mean_seconds == pytest.approx(0.1234567, abs=5e-7)

    def test_roundtrip_at_three_decimals(self):
        records = run_bench(_quick_config(test_counts=(2, 4)))
        parsed = parse_report(emit_report(records))
        originals = sorted(records, key=lambda r: (r.scenario, r.n, r.tests, r.method))
        for got, want in zip(parsed, originals):
            assert got.scenario == want.scenario
            assert (got.n, got.tests, got.method) == (want.n, want.tests, want.method)
            assert got.normalized == pytest.approx(want.normalized, abs=5e-4)

    def test_markdown_table(self):
        text = emit_report(self._records(), format="markdown")
        assert text.splitlines()[0].startswith("| scenario")
        assert "| ipf" in text.replace("  ", " ")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit_report([])

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self._records(), format="html")
