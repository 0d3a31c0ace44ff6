"""Model state: deterministic init, warm start, binary persistence."""
import numpy as np
import pytest

from zsretrieval import binio
from zsretrieval.corpus import build_corpus
from zsretrieval.errors import (
    ChecksumError,
    ConfigError,
    FormatError,
    RefreshError,
    VersionError,
)
from zsretrieval.store import (
    SMC,
    STL,
    ZSL_ME,
    ZSL_TE,
    ModelState,
    TrainConfig,
    init_model_state,
    init_rows,
    load_model,
    save_model,
    warm_start_extend,
)


def small_corpus(n=5, m=4):
    items = {f"i{k}": [f"w{k % m}"] for k in range(n)}
    return build_corpus(items)


class TestInit:
    def test_same_config_bit_identical(self):
        corpus = small_corpus()
        cfg = TrainConfig(kind=ZSL_ME, d=6, seed=3)
        a = init_model_state(cfg, corpus)
        b = init_model_state(cfg, corpus)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.U, b.U)

    def test_blocks_differ_and_seed_matters(self):
        corpus = small_corpus()
        a = init_model_state(TrainConfig(kind=ZSL_ME, d=6, seed=3), corpus)
        b = init_model_state(TrainConfig(kind=ZSL_ME, d=6, seed=4), corpus)
        assert not np.array_equal(a.V, b.V)
        assert not np.array_equal(a.V[: a.m], a.W)

    def test_zsl_te_has_no_u_block(self):
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=4), small_corpus())
        assert state.U is None

    def test_init_std_zero_warns(self):
        with pytest.warns(UserWarning, match="all-zero"):
            state = init_model_state(
                TrainConfig(kind=STL, d=4, init_std=0.0), small_corpus())
        assert not state.W.any()

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            init_model_state(TrainConfig(kind=STL, d=0), small_corpus())
        with pytest.raises(ConfigError):
            TrainConfig(omega0=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(omega0=1.5).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lam=-1.0).validate()
        for field in ("lam", "init_std"):  # an int beyond float range is not finite
            with pytest.raises(ConfigError, match="must be finite and >= 0"):
                TrainConfig(**{field: 10 ** 400}).validate()

    def test_init_statistics(self):
        corpus = build_corpus({f"i{k}": ["w"] for k in range(2000)})
        state = init_model_state(TrainConfig(kind=STL, d=8, init_std=0.1), corpus)
        assert abs(float(state.V.mean())) < 5e-3
        assert float(state.V.std()) == pytest.approx(0.1, rel=0.05)


def fresh_generator_rows(seed, block, rows, d, init_std):
    """Rows as a new Philox generator per (seed, block, row) draws them."""
    out = []
    for row in rows:
        key = np.array([(seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF,
                        ({"W": 1, "V": 2, "U": 3}[block] << 48) | row], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        out.append((rng.standard_normal(d) * init_std).astype(np.float32))
    return np.array(out, dtype=np.float32).reshape(len(rows), d)


class TestInitRows:
    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    @pytest.mark.parametrize("block", ["W", "V", "U"])
    def test_rows_equal_a_fresh_generator_per_row(self, seed, block):
        for rows in (range(0, 40), [0], [5, 0, 5, 2**47 - 1, 123_456_789_012],
                     range(10**6, 10**6 + 3)):
            got = init_rows(seed, block, rows, 7, 0.3)
            assert got.dtype == np.float32 and got.shape == (len(rows), 7)
            assert got.tobytes() == fresh_generator_rows(seed, block, rows, 7, 0.3).tobytes()

    def test_no_rows(self):
        assert init_rows(1, "V", [], 4, 0.1).shape == (0, 4)


class TestBlocks:
    @pytest.mark.parametrize("kind, names", [(STL, ["W", "V"]), (ZSL_ME, ["W", "V", "U"]),
                                             (ZSL_TE, ["W", "V"])])
    def test_each_kind_saves_and_loads_its_blocks(self, tmp_path, kind, names):
        corpus = small_corpus()
        state = init_model_state(TrainConfig(kind=kind, d=3), corpus)
        assert list(state.blocks) == names
        assert (state.U is None) == ("U" not in names)
        save_model(state, tmp_path, corpus)
        assert sorted(p.name for p in tmp_path.glob("*.bin")) == sorted(f"{b}.bin" for b in names)
        back = load_model(tmp_path)
        for got in (back, back.copy(), warm_start_extend(back, corpus, corpus)):
            assert list(got.blocks) == names
            for name, block in got.blocks.items():
                assert block.tobytes() == getattr(state, name).tobytes()

    def test_smc_has_w_and_v(self):
        one = np.ones((1, 2), dtype=np.float32)
        assert list(ModelState(SMC, 2, one, one, None, 0).blocks) == ["W", "V"]

    @pytest.mark.parametrize("kind", [SMC, "bogus"])
    def test_a_kind_without_square_loss_tasks_is_refused(self, kind):
        with pytest.raises(ConfigError) as info:
            TrainConfig(kind=kind).validate()
        assert str(info.value) == (f"kind {kind!r} is not square-loss trainable; "
                                   "square-loss kinds: stl, zsl_me, zsl_te")


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        corpus = small_corpus()
        state = init_model_state(TrainConfig(kind=ZSL_ME, d=5, seed=9), corpus)
        state.sweep_count = 7
        save_model(state, tmp_path / "m", corpus)
        back = load_model(tmp_path / "m")
        assert back.kind == ZSL_ME and back.d == 5
        assert back.seed == 9 and back.sweep_count == 7
        assert back.score_mode == state.score_mode
        assert np.array_equal(back.W, state.W)
        assert np.array_equal(back.V, state.V)
        assert np.array_equal(back.U, state.U)
        # The corpus binds through meta.json's ids_sha256; no id tables are copied.
        assert not (tmp_path / "m" / "vocab.tsv").exists()
        assert not (tmp_path / "m" / "items.tsv").exists()

    def test_loaded_blocks_are_read_only(self, tmp_path):
        corpus = small_corpus()
        state = init_model_state(TrainConfig(kind=ZSL_ME, d=5, seed=4), corpus)
        save_model(state, tmp_path / "m", corpus)
        back = load_model(tmp_path / "m")
        for block in ("W", "V", "U"):
            loaded = getattr(back, block)
            assert not loaded.flags.writeable
            with pytest.raises(ValueError):
                loaded.flags.writeable = True
            with pytest.raises(ValueError):
                loaded[0, 0] = 1.0
            edited = getattr(back.copy(), block)
            edited[0, 0] = 1.0  # a copy is the caller's to edit
            assert edited.flags.writeable and loaded[0, 0] == getattr(state, block)[0, 0]

    def test_model_dir_with_id_tables_still_loads(self, tmp_path):
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=3), small_corpus())
        save_model(state, tmp_path / "m", small_corpus())
        for name in ("items.tsv", "vocab.tsv"):  # as older versions wrote them
            (tmp_path / "m" / name).write_text("stale\t0\n")
        assert np.array_equal(load_model(tmp_path / "m").V, state.V)

    def test_corrupted_matrix_checksum_error(self, tmp_path):
        corpus = small_corpus()
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=4), corpus)
        save_model(state, tmp_path / "m", corpus)
        path = tmp_path / "m" / "V.bin"
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # one byte inside the payload
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_model(tmp_path / "m")

    def test_truncated_file_format_error(self, tmp_path):
        corpus = small_corpus()
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=4), corpus)
        save_model(state, tmp_path / "m", corpus)
        path = tmp_path / "m" / "W.bin"
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(FormatError):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("shape", [(2, 3), (5, 4)], ids=["rows", "columns"])
    def test_u_block_of_another_shape_format_error(self, tmp_path, shape):
        corpus = small_corpus()  # U is n=5 by d=3
        state = init_model_state(TrainConfig(kind=ZSL_ME, d=3), corpus)
        save_model(state, tmp_path / "m", corpus)
        binio.write_matrix(tmp_path / "m" / "U.bin", b"ZSRMAT_U", np.zeros(shape, np.float32))
        with pytest.raises(FormatError, match="matrix shapes disagree with meta.json"):
            load_model(tmp_path / "m")

    def test_version_mismatch(self, tmp_path):
        corpus = small_corpus()
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=4), corpus)
        save_model(state, tmp_path / "m", corpus)
        meta = tmp_path / "m" / "meta.json"
        meta.write_text(meta.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(VersionError):
            load_model(tmp_path / "m")


class TestWarmStart:
    def make_pair(self):
        old = build_corpus({"a": ["x"], "b": ["y"]})
        new = build_corpus({"b": ["y"], "a": ["x"], "c": ["x", "z"]})
        return old, new

    def test_retained_rows_bit_identical_under_permutation(self):
        old, new = self.make_pair()
        state = init_model_state(TrainConfig(kind=ZSL_ME, d=4, seed=2), old)
        ext = warm_start_extend(state, old, new)
        for item in ("a", "b"):
            assert np.array_equal(ext.V[new.item_index[item]],
                                  state.V[old.item_index[item]])
            assert np.array_equal(ext.U[new.item_index[item]],
                                  state.U[old.item_index[item]])
        for word in old.vocab:
            assert np.array_equal(ext.W[new.vocab_index[word]],
                                  state.W[old.vocab_index[word]])

    def test_exactly_new_rows_are_fresh(self):
        old, new = self.make_pair()
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=4, seed=2), old)
        ext = warm_start_extend(state, old, new)
        assert ext.V.shape == (3, 4)
        fresh = ext.V[new.item_index["c"]]
        assert fresh.any()
        assert not any(np.array_equal(fresh, state.V[i]) for i in range(old.n))

    def test_no_new_ids_identity_up_to_permutation(self):
        old = build_corpus({"a": ["x"], "b": ["y"]})
        new = build_corpus({"b": ["y"], "a": ["x"]})
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=4, seed=2), old)
        ext = warm_start_extend(state, old, new)
        perm = [old.item_index[i] for i in new.item_ids]
        assert np.array_equal(ext.V, state.V[perm])

    def test_removed_id_refused_without_prune(self):
        old = build_corpus({"a": ["x"], "b": ["y"]})
        new = build_corpus({"a": ["x"]})
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=4), old)
        with pytest.raises(RefreshError, match="b"):
            warm_start_extend(state, old, new)
        pruned = warm_start_extend(state, old, new, prune=True)
        assert pruned.V.shape[0] == 1

    def test_sub_seed_changes_fresh_rows_only(self):
        old, new = self.make_pair()
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=4, seed=2), old)
        e1 = warm_start_extend(state, old, new, sub_seed=10)
        e2 = warm_start_extend(state, old, new, sub_seed=11)
        c = new.item_index["c"]
        assert not np.array_equal(e1.V[c], e2.V[c])
        keep = [i for i in range(new.n) if i != c]
        assert np.array_equal(e1.V[keep], e2.V[keep])
