#include "validation/golden.hpp"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace esteem::validation {

namespace {

void write_series(std::ostringstream& os, const char* key,
                  const std::vector<double>& v, const char* indent) {
  os << indent << '"' << key << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << fmt_f64(v[i]);
  }
  os << ']';
}

// golden_from_json walks the shared JSON tree. Unknown keys are skipped,
// so adding fields stays backward compatible within a golden version.
using json::Value;
using Kind = Value::Kind;

/// Member `key` of `obj`, which must hold a `kind` value.
const Value& member(const Value& obj, const std::string& key, Kind kind) {
  static constexpr const char* kKindNames[] = {"numeric", "string", "array", "object"};
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is(kind)) {
    throw std::runtime_error(std::string("golden JSON: missing ") +
                             kKindNames[static_cast<int>(kind)] + " key '" + key + "'");
  }
  return *v;
}

/// `v` as a double; `key` names where it came from.
double number(const Value& v, const std::string& key) {
  double out = 0.0;
  if (!v.is(Kind::Number)) {
    throw std::runtime_error("golden JSON: non-numeric entry in '" + key + "'");
  }
  if (!to_f64(v.text, out)) {
    throw std::runtime_error("golden JSON: malformed number in '" + key + "'");
  }
  return out;
}

std::vector<double> series(const Value& obj, const std::string& key) {
  std::vector<double> out;
  for (const Value& e : member(obj, key, Kind::Array).items) out.push_back(number(e, key));
  return out;
}

}  // namespace

const GoldenFigure* GoldenScale::find_figure(const std::string& id) const {
  for (const GoldenFigure& f : figures) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

const GoldenScale* GoldenFile::find_scale(const std::string& fingerprint) const {
  for (const GoldenScale& s : scales) {
    if (s.fingerprint == fingerprint) return &s;
  }
  return nullptr;
}

void GoldenFile::upsert_scale(GoldenScale scale) {
  for (GoldenScale& s : scales) {
    if (s.fingerprint == scale.fingerprint) {
      s = std::move(scale);
      return;
    }
  }
  scales.push_back(std::move(scale));
}

std::string golden_to_json(const GoldenFile& file) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"version\": " << file.version << ",\n";
  os << "  \"generator\": \"" << json_escape(file.generator) << "\",\n";
  os << "  \"scales\": [";
  for (std::size_t si = 0; si < file.scales.size(); ++si) {
    const GoldenScale& s = file.scales[si];
    os << (si == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"fingerprint\": \"" << json_escape(s.fingerprint) << "\",\n";
    os << "      \"label\": \"" << json_escape(s.label) << "\",\n";
    os << "      \"figures\": [";
    for (std::size_t fi = 0; fi < s.figures.size(); ++fi) {
      const GoldenFigure& f = s.figures[fi];
      os << (fi == 0 ? "\n" : ",\n");
      os << "        {\n";
      os << "          \"id\": \"" << json_escape(f.id) << "\",\n";
      os << "          \"esteem_energy_pct\": " << fmt_f64(f.esteem_energy_pct) << ",\n";
      os << "          \"rpv_energy_pct\": " << fmt_f64(f.rpv_energy_pct) << ",\n";
      os << "          \"esteem_ws\": " << fmt_f64(f.esteem_ws) << ",\n";
      os << "          \"rpv_ws\": " << fmt_f64(f.rpv_ws) << ",\n";
      os << "          \"esteem_rpki_dec\": " << fmt_f64(f.esteem_rpki_dec) << ",\n";
      os << "          \"rpv_rpki_dec\": " << fmt_f64(f.rpv_rpki_dec) << ",\n";
      os << "          \"esteem_mpki_inc\": " << fmt_f64(f.esteem_mpki_inc) << ",\n";
      os << "          \"esteem_active_pct\": " << fmt_f64(f.esteem_active_pct) << ",\n";
      os << "          \"workloads\": [";
      for (std::size_t wi = 0; wi < f.workloads.size(); ++wi) {
        if (wi != 0) os << ", ";
        os << '"' << json_escape(f.workloads[wi]) << '"';
      }
      os << "],\n";
      write_series(os, "esteem_energy_savings", f.esteem_energy_savings,
                   "          ");
      os << ",\n";
      write_series(os, "rpv_energy_savings", f.rpv_energy_savings, "          ");
      os << "\n        }";
    }
    os << "\n      ]\n";
    os << "    }";
  }
  os << "\n  ]\n";
  os << "}\n";
  return os.str();
}

GoldenFile golden_from_json(const std::string& text) {
  json::ParseError err;
  const std::optional<Value> root = json::parse(text, &err);
  if (!root) {
    std::ostringstream os;
    os << "golden JSON parse error at byte " << err.offset << ": " << err.reason;
    throw std::runtime_error(os.str());
  }
  if (!root->is(Value::Kind::Object)) {
    throw std::runtime_error("golden JSON: document is not an object");
  }

  auto num = [](const Value& obj, const std::string& key) {
    return number(member(obj, key, Kind::Number), key);
  };
  auto str = [](const Value& obj, const std::string& key) {
    return member(obj, key, Kind::String).text;
  };

  // Compared as an integer token: casting an arbitrary double to int is
  // undefined for out-of-range outside input.
  const Value& version = member(*root, "version", Kind::Number);
  std::int64_t v = 0;
  if (!to_i64(version.text, v) || v != kGoldenVersion) {
    std::ostringstream os;
    os << "golden file version " << version.text << " does not match this "
       << "binary's golden schema version " << kGoldenVersion
       << "; regenerate with `esteem_validate --update-golden`";
    throw std::runtime_error(os.str());
  }
  GoldenFile file;
  file.generator = str(*root, "generator");

  for (const Value& sv : member(*root, "scales", Kind::Array).items) {
    GoldenScale scale;
    scale.fingerprint = str(sv, "fingerprint");
    scale.label = str(sv, "label");
    for (const Value& fv : member(sv, "figures", Kind::Array).items) {
      GoldenFigure fig;
      fig.id = str(fv, "id");
      fig.esteem_energy_pct = num(fv, "esteem_energy_pct");
      fig.rpv_energy_pct = num(fv, "rpv_energy_pct");
      fig.esteem_ws = num(fv, "esteem_ws");
      fig.rpv_ws = num(fv, "rpv_ws");
      fig.esteem_rpki_dec = num(fv, "esteem_rpki_dec");
      fig.rpv_rpki_dec = num(fv, "rpv_rpki_dec");
      fig.esteem_mpki_inc = num(fv, "esteem_mpki_inc");
      fig.esteem_active_pct = num(fv, "esteem_active_pct");
      for (const Value& w : member(fv, "workloads", Kind::Array).items) {
        if (!w.is(Kind::String)) {
          throw std::runtime_error("golden JSON: non-string entry in 'workloads'");
        }
        fig.workloads.push_back(w.text);
      }
      fig.esteem_energy_savings = series(fv, "esteem_energy_savings");
      fig.rpv_energy_savings = series(fv, "rpv_energy_savings");
      scale.figures.push_back(std::move(fig));
    }
    file.scales.push_back(std::move(scale));
  }
  return file;
}

GoldenFile load_golden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open golden file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return golden_from_json(os.str());
}

void save_golden(const std::string& path, const GoldenFile& file) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write golden file: " + path);
  out << golden_to_json(file);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace esteem::validation
