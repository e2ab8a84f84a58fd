"""RL006 golden fixture: the registry's serving round stays vectorised.

``_round`` is not a ``*_batch`` name, so it is flagged only while the rule
lists it as a hot path.
"""


class ModelRegistry:
    @staticmethod
    def _round(entry, queries, budgets) -> list:
        if budgets is None:
            return entry.forest.predict_batch(queries)
        predictions = []
        for query, budget in zip(queries, budgets):  # EXPECT: RL006
            predictions.append(entry.forest.classify_anytime(query, max_nodes=budget))
        return predictions

    @staticmethod
    def _round_reference(entry, queries) -> list:
        # Not a hot-path name: a scalar reference loop is allowed here.
        return [entry.forest.classify_anytime(query) for query in queries]
