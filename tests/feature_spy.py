"""A spy on the feature cache of ``run_policy``, installed by monkeypatch.

``run_policy`` calls ``denoiser_forward`` once per computed step and
``matmul`` once per step, for the readout, both through the globals of
``bwcache.cache``. The spy wraps both. It digests every model call's block
outputs as they are returned, and at every readout it records whether the
operand is byte-equal to the last block output of the latest model call and
whether all N outputs of that call still digest as they did.
"""

from __future__ import annotations

import hashlib

from bwcache import cache


def digest(x) -> str:
    return hashlib.blake2b(x.tobytes(), digest_size=16).hexdigest()


class FeatureSpy:
    def __init__(self, monkeypatch) -> None:
        self.forward_digests: list[tuple[str, ...]] = []  # per model call, on return
        self.readouts: list[tuple[bool, bool]] = []  # per step: (operand ok, cache intact)
        latest = []
        forward, readout = cache.denoiser_forward, cache.matmul

        def spy_forward(*args):
            outputs = forward(*args)
            latest[:] = outputs
            self.forward_digests.append(tuple(digest(o) for o in outputs))
            return outputs

        def spy_readout(features, matrix):
            operand_ok = bool(latest) and features.tobytes() == latest[-1].tobytes()
            intact = bool(latest) and tuple(digest(o) for o in latest) == self.forward_digests[-1]
            self.readouts.append((operand_ok, intact))
            return readout(features, matrix)

        monkeypatch.setattr(cache, "denoiser_forward", spy_forward)
        monkeypatch.setattr(cache, "matmul", spy_readout)

    def failed_readouts(self, decisions) -> list[str]:
        """One message per step whose readout broke either check."""
        if len(decisions) != len(self.readouts):
            return [f"{len(self.readouts)} readouts for {len(decisions)} steps"]
        problems = []
        for d, (operand_ok, intact) in zip(decisions, self.readouts):
            if not operand_ok:
                problems.append(f"step {d.step}: readout operand is not the latest last-block output")
            if not intact:
                problems.append(f"step {d.step}: cached block outputs changed since they were returned")
        return problems
