"""Naive-Bayes content filtering: the Androutsopoulos et al. baseline.

Two layers live here:

* :class:`NaiveBayesFilter` — the multinomial naive-Bayes classifier with
  Laplace smoothing over subject tokens (the only "content" the
  measurement pipeline retains — like the paper, we never see message
  bodies). It can also be trained post-hoc on logged records; the online
  chain member below trains it incrementally during the run.

* :class:`OnlineNaiveBayesFilter` — a :class:`~repro.core.filters.base.SpamFilter`
  wrapping the classifier so it runs *inside* the dispatcher's chain.
  It scores each gray message first, then folds the message's label into
  the model, so a message never trains on itself. Labels come from the
  workload's ground truth, standing in for the user-feedback / honeypot
  corpora a real operator retrains from.

Scoring cost note: token totals and the vocabulary are maintained
incrementally by :meth:`NaiveBayesFilter.train`, so one
:meth:`~NaiveBayesFilter.spam_log_odds` call is O(subject tokens) — not
O(vocabulary), which mattered once the classifier moved into the
per-message hot path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.core.filters.base import SpamFilter
from repro.core.message import EmailMessage, MessageKind
from repro.util.simtime import DAY


@dataclass(frozen=True)
class TrainingSummary:
    """What the filter was fitted on."""

    spam_messages: int
    ham_messages: int
    vocabulary_size: int


def _tokenize(subject: str) -> list[str]:
    return [token for token in subject.lower().split() if token]


class NaiveBayesFilter:
    """Multinomial naive Bayes over subject tokens.

    >>> nb = NaiveBayesFilter()
    >>> nb.train([("cheap meds online", True), ("meeting notes", False)])
    TrainingSummary(spam_messages=1, ham_messages=1, vocabulary_size=5)
    >>> nb.classify("cheap cheap meds")
    True
    """

    def __init__(self, threshold: float = 0.0, smoothing: float = 1.0) -> None:
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        #: Decision threshold on the log-odds (0.0 = maximum likelihood).
        self.threshold = threshold
        self.smoothing = smoothing
        self._spam_tokens: Counter = Counter()
        self._ham_tokens: Counter = Counter()
        self._spam_docs = 0
        self._ham_docs = 0
        # Incremental aggregates so scoring is O(subject), not O(vocab):
        # kept in lockstep by train(), the only mutation path.
        self._spam_token_total = 0
        self._ham_token_total = 0
        self._vocab: set = set()

    # -- training ---------------------------------------------------------

    def train(
        self, labelled_subjects: Iterable[tuple[str, bool]]
    ) -> TrainingSummary:
        """Fit on ``(subject, is_spam)`` pairs (incremental: can be called
        repeatedly)."""
        vocab = self._vocab
        for subject, is_spam in labelled_subjects:
            tokens = _tokenize(subject)
            if is_spam:
                self._spam_docs += 1
                self._spam_tokens.update(tokens)
                self._spam_token_total += len(tokens)
            else:
                self._ham_docs += 1
                self._ham_tokens.update(tokens)
                self._ham_token_total += len(tokens)
            vocab.update(tokens)
        return TrainingSummary(
            spam_messages=self._spam_docs,
            ham_messages=self._ham_docs,
            vocabulary_size=len(vocab),
        )

    def train_one(self, subject: str, is_spam: bool) -> None:
        """One labelled example, without building a summary (hot path)."""
        tokens = _tokenize(subject)
        if is_spam:
            self._spam_docs += 1
            self._spam_tokens.update(tokens)
            self._spam_token_total += len(tokens)
        else:
            self._ham_docs += 1
            self._ham_tokens.update(tokens)
            self._ham_token_total += len(tokens)
        self._vocab.update(tokens)

    def train_from_records(self, records: Iterable) -> TrainingSummary:
        """Fit on dispatch records using ground-truth labels (the corpus a
        real operator would assemble from user feedback)."""
        return self.train(
            (record.subject, record.kind is MessageKind.SPAM)
            for record in records
        )

    def vocabulary(self) -> set:
        return set(self._vocab)

    @property
    def trained(self) -> bool:
        return self._spam_docs > 0 and self._ham_docs > 0

    # -- scoring ----------------------------------------------------------

    def spam_log_odds(self, subject: str) -> float:
        """log P(spam | subject) - log P(ham | subject), up to a shared
        constant. Positive means spam-leaning."""
        if not self.trained:
            raise RuntimeError("classifier has not been trained on both classes")
        smoothing = self.smoothing
        vocab = len(self._vocab) or 1
        spam_denominator = self._spam_token_total + smoothing * vocab
        ham_denominator = self._ham_token_total + smoothing * vocab
        log_odds = math.log(self._spam_docs) - math.log(self._ham_docs)
        spam_tokens = self._spam_tokens
        ham_tokens = self._ham_tokens
        for token in _tokenize(subject):
            p_spam = (spam_tokens.get(token, 0) + smoothing) / spam_denominator
            p_ham = (ham_tokens.get(token, 0) + smoothing) / ham_denominator
            log_odds += math.log(p_spam) - math.log(p_ham)
        return log_odds

    def classify(self, subject: str) -> bool:
        """True when the filter calls *subject* spam."""
        return self.spam_log_odds(subject) > self.threshold

    def classify_record(self, record) -> bool:
        return self.classify(record.subject)


class OnlineNaiveBayesFilter(SpamFilter):
    """The naive-Bayes baseline as a live chain member.

    Score-then-train: the verdict for a message is computed from the
    model *before* the message's own label is folded in, so the filter
    never cheats on the message it is judging. During the first
    ``warmup_days`` of simulated time (and until it has seen both
    classes) it only trains — a fresh deployment has no corpus, and a
    zero-knowledge classifier dropping mail would be noise, not a
    baseline.
    """

    name = "content"

    def __init__(
        self,
        threshold: float = 0.0,
        warmup_days: float = 3.0,
        smoothing: float = 1.0,
    ) -> None:
        self.classifier = NaiveBayesFilter(
            threshold=threshold, smoothing=smoothing
        )
        self.warmup_seconds = warmup_days * DAY
        #: Messages scored while warm (trained + past warm-up).
        self.scored = 0
        #: Messages that only trained (warm-up or single-class model).
        self.warmup_passes = 0

    def should_drop(self, message: EmailMessage, now: float) -> bool:
        classifier = self.classifier
        if classifier.trained and now >= self.warmup_seconds:
            self.scored += 1
            verdict = classifier.classify(message.subject)
        else:
            self.warmup_passes += 1
            verdict = False
        # Ground-truth label == the operator's feedback corpus; newsletters
        # count as ham (solicited-ish bulk, like the offline baseline).
        classifier.train_one(
            message.subject, message.kind is MessageKind.SPAM
        )
        return verdict
