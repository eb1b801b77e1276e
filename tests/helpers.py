"""Plain test helpers: a tiny CoQA-format payload and small model inputs.

Kept apart from ``conftest.py`` under a name no other test directory
uses, so ``from helpers import ...`` always resolves here.
"""

import numpy as np

from pgc import corpus, model as M, prompt


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


def make_prompted(source_ids, oov=(), target_text=""):
    """Bare PromptedExample wrapper for direct model-level tests."""
    turn = corpus.ConversationTurn(turn_id=1, question="q", rationale="r",
                                   answer=target_text or "a", span_start=0)
    origin = corpus.DialogueExample(story_id="test", turn=turn, history=(),
                                    answer_class=corpus.AnswerClass.GENERATIVE)
    return prompt.PromptedExample(
        source_text="", target_text=target_text,
        source_tokens=[f"t{i}" for i in range(len(source_ids))],
        source_ids=list(source_ids), origin=origin, source_oov=list(oov),
    )


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
