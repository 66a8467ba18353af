"""IV/nonce draws and the seeded-CTR refusal."""

import numpy as np
import pytest

from repro.crypto import rng


class TestFreshIv:
    def test_sizes_per_mode(self):
        assert len(rng.fresh_iv("cbc")) == 16
        assert len(rng.fresh_iv("ctr")) == 8

    def test_seeded_cbc_matches_generate_iv(self):
        # Seeded CBC containers are pinned byte for byte, so the draw
        # must consume the generator exactly as generate_iv does.
        assert rng.fresh_iv("cbc", np.random.default_rng(42)) == (
            rng.generate_iv(np.random.default_rng(42))
        )

    def test_os_entropy_draws_differ(self):
        assert rng.fresh_iv("ctr") != rng.fresh_iv("ctr")


class TestRefuseSeededCtr:
    def test_seeded_ctr_refused(self):
        with pytest.raises(ValueError, match="nonce"):
            rng.refuse_seeded_ctr("ctr", np.random.default_rng(1))

    @pytest.mark.parametrize("mode, seeded", [
        ("ctr", False), ("cbc", True), ("cbc", False),
    ])
    def test_other_combinations_allowed(self, mode, seeded):
        rng.refuse_seeded_ctr(
            mode, np.random.default_rng(1) if seeded else None
        )
