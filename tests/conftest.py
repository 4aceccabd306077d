import json

import numpy as np
import pytest

from newsbarriers.knowledge import load_country_profiles, load_publishers

# Pair rows mirroring the demo slice of the source dataset.
PAIR_HEADER = "from,to,weight,Class,from-publisher,to-publisher,from-pub-uri,to-pub-uri"
PAIR_ROWS = [
    "Por44,Por43,0.627,Unsure,ClicRBS,SAPO 24,jornald.clicrbs.com.br,24.sapo.pt",
    "English881,English880,1,Information-Propagated,Sky News,247 Wall St.,news.sky.com,247wallst.com",
    "English258,English329,0.313,Information-Not-Propagated,Sify,4-traders,sify.com,4-traders.com",
    "English793,English787,0.238,Information-Not-Propagated,Bioengineer.org,7NEWS Sydney,scienmag.com,7news.com.au",
    "German237,German236,0.979,Information-Propagated,watson,watson,aargauerzeitung.ch,aargauerzeitung.ch",
]

COUNTRY_HEADER = (
    "country_code,latitude,longitude,utc_offset,"
    "Power-Distance,Uncertainty-Avoidance-By-Individuals,Individualistic-Cultures,"
    "Masculinity-Femininity,Long-Term-Orientation,Indulgence-Restraint,"
    "Rank,Safety-Security,Personal-Freedom,Governance,Social-Capital,"
    "Investment-Environment,Enterprise-Conditions,Market-Infrastructure,"
    "Economic-Quality,Living-Conditions,Health,Education,Natural-Environment"
)
COUNTRY_ROWS = [
    "SI,46.05,14.82,60,71,88,27,19,49,48,36,83.2,81.1,74.5,60.1,71.9,66.0,78.4,70.2,80.9,83.1,82.5,75.3",
    "GB,54.0,-2.0,0,35,35,89,66,51,69,13,88.4,90.2,83.5,72.0,79.3,82.1,87.7,78.9,89.0,90.6,88.8,79.2",
    "DE,51.0,9.0,60,35,65,67,66,83,40,8,90.1,89.5,85.0,74.8,80.2,84.6,88.3,81.7,90.4,91.2,89.6,80.5",
    "AT,47.5,14.5,60,11,70,55,79,60,63,15,89.0,88.7,82.1,70.6,78.8,81.4,86.1,79.5,88.6,90.0,87.9,81.8",
    "CH,46.8,8.2,60,34,58,68,70,74,66,3,92.5,91.8,87.3,78.0,83.7,88.2,90.9,85.4,92.1,93.0,91.4,83.6",
]

PUBLISHER_HEADER = "publisher_uri,publisher_name,country_code,political_alignment"
PUBLISHER_ROWS = [
    "news.sky.com,Sky News,GB,right-wing",
    "dailymail.co.uk,Daily Mail,GB,right-wing",
    "derstandard.at,Der Standard,AT,social-liberalism",
    "stern.de,Stern,DE,",
    "aargauerzeitung.ch,watson,CH,",
    "24.sapo.pt,SAPO 24,PT,",
    "jornald.clicrbs.com.br,ClicRBS,BR,",
    "247wallst.com,247 Wall St.,US,",
    "sify.com,Sify,IN,",
    "scienmag.com,Bioengineer.org,US,",
    "7news.com.au,7NEWS Sydney,AU,",
]

CONCEPT_LINES = [
    {"article": "English881", "concepts": ["Earthquake", "Richter_scale"]},
    {"article": "English880", "concepts": ["Earthquake", "Seismology"]},
    {"article": "German237", "concepts": ["FIFA_World_Cup", "Association_football"]},
    {"article": "Por44", "concepts": ["Global_warming"]},
]


def class_summed_micro(predictions, gold):
    """Micro precision, recall and F1 from TP/FP/FN summed over both classes: the
    paper's Mic-Pre, Mic-Rec and Mic-F1, as a reference for ``evaluate.accuracy``."""
    predictions = np.asarray(predictions, dtype=bool)
    gold = np.asarray(gold, dtype=bool)
    tp_sum = fp_sum = fn_sum = 0
    for label in (False, True):
        tp_sum += int(((predictions == label) & (gold == label)).sum())
        fp_sum += int(((predictions == label) & (gold != label)).sum())
        fn_sum += int(((predictions != label) & (gold == label)).sum())
    precision = tp_sum / (tp_sum + fp_sum)
    recall = tp_sum / (tp_sum + fn_sum)
    f1 = precision if precision == recall else 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("\n".join([PAIR_HEADER] + PAIR_ROWS) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def countries_file(tmp_path):
    path = tmp_path / "countries.csv"
    path.write_text("\n".join([COUNTRY_HEADER] + COUNTRY_ROWS) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def publishers_file(tmp_path):
    path = tmp_path / "publishers.csv"
    path.write_text("\n".join([PUBLISHER_HEADER] + PUBLISHER_ROWS) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def concepts_file(tmp_path):
    path = tmp_path / "concepts.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in CONCEPT_LINES), encoding="utf-8")
    return path


@pytest.fixture
def profiles(countries_file):
    return load_country_profiles(countries_file)


@pytest.fixture
def publishers(publishers_file):
    return load_publishers(publishers_file)
