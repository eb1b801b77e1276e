"""Plain test helpers: a tiny CoQA-format payload, small model inputs, the
one-position greedy decoder that drafted decoding is checked against, and
a reader and writer of the checkpoint container.

Kept apart from ``conftest.py`` under a name no other test directory
uses, so ``from helpers import ...`` always resolves here.
"""

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pgc import corpus, model as M, prompt, tensor as T
from pgc.tensor import Tensor


def weighted_total(x, w=None) -> Tensor:
    """``sum(x * w)`` for a constant array ``w`` of ``x``'s shape (by
    default ``1/n`` everywhere: the mean) as a ``[1, 1]`` Tensor, one
    product of kernel ops, so a test can call ``backward`` on any
    output.  The gradient ``x`` gets is ``w``, exactly."""
    w = np.full(x.data.shape, 1.0 / x.data.size) if w is None else np.asarray(w, float)
    return T.reshape(x, (1, -1)) @ Tensor(w.reshape(-1, 1))


def store_of(arrays: dict) -> T.ParamStore:
    """A store built from the arrays' layout, with each array written into
    its parameter's view, in the dict's order."""
    store = T.ParamStore({name: np.shape(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        store[name].data[...] = a
    return store


@contextmanager
def tensor_constructions():
    """Yields a list that gets one entry per Tensor built inside the block:
    whether it was scanned for NaN/inf (``_check``)."""
    built = []
    init = Tensor.__init__

    def counting_init(obj, data, _parents=(), _backward=None, _check=True):
        built.append(_check)
        init(obj, data, _parents, _backward, _check)

    Tensor.__init__ = counting_init
    try:
        yield built
    finally:
        Tensor.__init__ = init


def tiny_coqa_dict() -> dict:
    """Two short dialogues, three extractive and three generative turns."""
    return {
        "version": "1.0",
        "data": [
            {
                "id": "beach-001",
                "story": ("Mara carried a red kite down the dune. The wind pulled "
                          "hard at the string. Her brother watched from the rocks."),
                "questions": [
                    {"input_text": "What did Mara carry?", "turn_id": 1},
                    {"input_text": "Was the wind strong?", "turn_id": 2},
                    {"input_text": "Who watched her?", "turn_id": 3},
                ],
                "answers": [
                    {"span_start": 0, "span_end": 38, "turn_id": 1,
                     "span_text": "Mara carried a red kite down the dune",
                     "input_text": "a red kite"},
                    {"span_start": 39, "span_end": 74, "turn_id": 2,
                     "span_text": "The wind pulled hard at the string",
                     "input_text": "yes"},
                    {"span_start": 75, "span_end": 112, "turn_id": 3,
                     "span_text": "Her brother watched from the rocks",
                     "input_text": "her brother"},
                ],
                "additional_answers": {
                    "0": [
                        {"span_start": 0, "span_end": 38, "turn_id": 1,
                         "span_text": "Mara carried a red kite down the dune",
                         "input_text": "red kite"},
                        {"span_start": 39, "span_end": 74, "turn_id": 2,
                         "span_text": "The wind pulled hard at the string",
                         "input_text": "Yes."},
                        {"span_start": 75, "span_end": 112, "turn_id": 3,
                         "span_text": "Her brother watched from the rocks",
                         "input_text": "the brother"},
                    ],
                },
            },
            {
                "id": "lab-002",
                "story": ("Three of the nine samples failed overnight. A faulty "
                          "heater ruined the batch. Nobody checked the logs."),
                "questions": [
                    {"input_text": "How many samples failed?", "turn_id": 1},
                    {"input_text": "Why did they fail?", "turn_id": 2},
                    {"input_text": "Did anyone notice?", "turn_id": 3},
                ],
                "answers": [
                    {"span_start": 0, "span_end": 43, "turn_id": 1,
                     "span_text": "Three of the nine samples failed overnight",
                     "input_text": "three"},
                    {"span_start": 44, "span_end": 79, "turn_id": 2,
                     "span_text": "A faulty heater ruined the batch",
                     "input_text": "the heater broke"},
                    {"span_start": -1, "span_end": -1, "turn_id": 3,
                     "span_text": "unknown", "input_text": "unknown"},
                ],
            },
        ],
    }


def make_prompted(source_ids, oov=(), target_text="", rationale="r"):
    """Bare PromptedExample wrapper for direct model-level tests.  Source
    id ``i`` has the token ``t{i}``, so a ``rationale`` such as ``"t4 t7"``
    names the source run of ids 4, 7; the default ``"r"`` names none."""
    turn = corpus.ConversationTurn(turn_id=1, question="q", rationale=rationale,
                                   answer=target_text or "a",
                                   span_start=0 if rationale else -1)
    origin = corpus.DialogueExample(story_id="test", turn=turn, history=(),
                                    answer_class=corpus.AnswerClass.GENERATIVE)
    return prompt.PromptedExample(
        source_text="", target_text=target_text,
        source_tokens=[f"t{i}" for i in source_ids],
        source_ids=list(source_ids), origin=origin, source_oov=list(oov),
    )


def rationale_draft(prompted, limit) -> list[int]:
    """The first pass's draft: the source ids under the last run of the
    rationale's tokens (none when no run matches), cut to ``limit - 1``."""
    run, tokens = prompt.tokenize(prompted.origin.turn.rationale), prompted.source_tokens
    starts = [s for s in range(len(tokens) - len(run) + 1) if tokens[s:s + len(run)] == run]
    if not starts:
        return []
    return list(prompted.source_ids[starts[-1]:starts[-1] + len(run)])[:max(limit - 1, 0)]


def one_position_decode(prompted, params, config):
    """Reference greedy decoder, as it was before drafting: one new
    position per cached pass of a batch of one, the argmax of its one row
    emitted (ties to the lowest id) until EOS or ``max_target_len`` tokens."""
    emitted = []
    with T.no_grad():
        stack = M.encode([prompted.source_ids], params, config)
        cache, next_id = M.DecoderCache(), prompt.BOS
        for _ in range(config.max_target_len):
            fed = next_id if next_id < config.vocab_size else prompt.UNK
            p_next = M.forward_distributions([[fed]], stack, params, config,
                                             cache).p_final.data[0, -1]
            next_id = int(np.argmax(p_next))
            if next_id == prompt.EOS:
                break
            emitted.append(next_id)
    return emitted


def random_small_config(rng: np.random.Generator) -> M.ModelConfig:
    """A random tiny-but-valid model shape for invariant sweeps."""
    n_heads = int(rng.choice([1, 2, 4]))
    d_model = n_heads * int(rng.choice([2, 4]))
    return M.ModelConfig(
        n_enc_layers=int(rng.integers(1, 4)),
        n_dec_layers=int(rng.integers(1, 3)),
        d_model=d_model,
        n_heads=n_heads,
        vocab_size=int(rng.integers(8, 24)),
        max_source_len=12,
        max_target_len=8,
        d_ff=2 * d_model,
    )


def random_model_draws(seed: int, n: int):
    """Random models with a source and a decoder prefix each (criterion 4's
    draws for ``seed=42, n=1000``): yields (config, params, source, prefix)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        config = random_small_config(rng)
        params = M.init_params(config, seed=int(rng.integers(1 << 31)))
        for name in ("gate.b", "copy.a_raw"):
            params[name].data[:] = rng.normal(size=params[name].data.shape) * 3
        length = int(rng.integers(1, 10))
        n_oov = int(rng.integers(0, 4))
        source = list(rng.integers(4, config.vocab_size + n_oov, size=length))
        prefix = [prompt.BOS] + list(rng.integers(4, config.vocab_size,
                                                  size=int(rng.integers(0, 4))))
        yield config, params, source, prefix


def random_copy_batch(rng: np.random.Generator, vocab: prompt.TokenVocab,
                      max_source: int, max_target: int) -> list:
    """A batch of 1-4 examples of mixed source and target lengths.

    Each source mixes generator ids with 0-3 copy-only words (extended
    ids past ``vocab.size``, so extended sizes differ between examples);
    each target draws from the vocabulary words and the example's own
    copy-only words.
    """
    words = vocab.tokens[len(prompt.SPECIAL_TOKENS):]
    batch = []
    for _ in range(int(rng.integers(1, 5))):
        oov = [f"x{j}" for j in range(int(rng.integers(0, 4)))]
        n_known = int(rng.integers(0 if oov else 1, max_source - len(oov) + 1))
        source = [int(i) for i in rng.integers(len(prompt.SPECIAL_TOKENS), vocab.size,
                                               size=n_known)]
        source += [vocab.size + j for j in range(len(oov))]
        source = [source[i] for i in rng.permutation(len(source))]
        target = rng.choice(words + oov, size=int(rng.integers(1, max_target)))
        batch.append(make_prompted(source, oov=oov, target_text=" ".join(target)))
    return batch


VECTOR_KEYS = ("params", "adam_m", "adam_v")

# A test class marked with this fails if it leaves a file open, on an
# error path too: the unclosed handle's ResourceWarning is an error.
CLOSES_ITS_FILES = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def read_checkpoint(path) -> dict:
    """A checkpoint as one dict: its header's sections, and each vector
    under its key in ``VECTOR_KEYS`` as a float64 array.

    Read here from the format alone, not through ``pgc.train``: one JSON
    line, then three vectors of little-endian float64 values, each as
    long as the ``layout`` says, and nothing after them."""
    head, newline, body = Path(path).read_bytes().partition(b"\n")
    assert newline, f"{path}: no header line"
    payload = json.loads(head)
    n = sum(math.prod(shape) for _, shape in payload["layout"])
    assert len(body) == 8 * n * len(VECTOR_KEYS), f"{path}: {len(body)} bytes of vectors"
    for i, key in enumerate(VECTOR_KEYS):
        payload[key] = np.frombuffer(body, dtype="<f8", count=n, offset=8 * n * i).copy()
    return payload


def checkpoint_bytes(payload: dict) -> bytes:
    """``payload`` as a checkpoint file: every section that is no numpy
    array in one ``json.dumps`` line, then each array, in ``payload``'s
    order, as little-endian float64 bytes.  A vector set to a list or
    any other JSON value so lands in the header."""
    header = {key: value for key, value in payload.items()
              if not isinstance(value, np.ndarray)}
    vectors = [value.astype("<f8").tobytes() for value in payload.values()
               if isinstance(value, np.ndarray)]
    return b"".join([json.dumps(header).encode("ascii"), b"\n", *vectors])


def write_checkpoint(path, payload: dict) -> Path:
    """Write ``checkpoint_bytes(payload)`` to ``path``; returns the path."""
    path = Path(path)
    path.write_bytes(checkpoint_bytes(payload))
    return path
