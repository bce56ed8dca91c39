#include "solver/constraint_set.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/logging.hh"

namespace libra {

double
LinearConstraint::violation(const Vec& x) const
{
    double lhs = dot(coeffs, x);
    switch (rel) {
      case Relation::Eq:
        return std::abs(lhs - rhs);
      case Relation::Le:
        return std::max(0.0, lhs - rhs);
      case Relation::Ge:
        return std::max(0.0, rhs - lhs);
    }
    return 0.0;
}

ConstraintSet::ConstraintSet(std::size_t num_vars) : numVars_(num_vars) {}

void
ConstraintSet::add(LinearConstraint c)
{
    if (c.coeffs.size() != numVars_) {
        panic("constraint width ", c.coeffs.size(), " != numVars ",
              numVars_);
    }
    constraints_.push_back(std::move(c));
}

void
ConstraintSet::add(const Vec& coeffs, Relation rel, double rhs,
                   std::string label)
{
    add(LinearConstraint{coeffs, rel, rhs, std::move(label)});
}

void
ConstraintSet::addTotalBw(double total, Relation rel)
{
    add(Vec(numVars_, 1.0), rel, total, "total-bw");
}

void
ConstraintSet::addLowerBounds(double lo)
{
    for (std::size_t i = 0; i < numVars_; ++i) {
        Vec c(numVars_, 0.0);
        c[i] = 1.0;
        add(c, Relation::Ge, lo, "lb-B" + std::to_string(i + 1));
    }
}

void
ConstraintSet::addUpperBound(std::size_t idx, double hi)
{
    if (idx >= numVars_)
        fatal("upper bound on B", idx + 1, " but only ", numVars_, " dims");
    Vec c(numVars_, 0.0);
    c[idx] = 1.0;
    add(c, Relation::Le, hi, "ub-B" + std::to_string(idx + 1));
}

namespace {

/** Linear expression: coefficient per variable plus a constant. */
struct LinExpr
{
    Vec coeffs;
    double constant = 0.0;
};

/** Tokenizer/parser state for the tiny constraint grammar. */
class ConstraintParser
{
  public:
    ConstraintParser(const std::string& text, std::size_t num_vars)
        : text_(text), numVars_(num_vars)
    {}

    /** expr (rel expr)+, expanded pairwise for chains. */
    std::vector<LinearConstraint>
    parse()
    {
        std::vector<LinExpr> exprs;
        std::vector<Relation> rels;
        exprs.push_back(parseExpr());
        while (true) {
            skipWs();
            if (pos_ >= text_.size())
                break;
            rels.push_back(parseRelation());
            exprs.push_back(parseExpr());
        }
        if (rels.empty())
            fatal("constraint '", text_, "' has no relation");

        std::vector<LinearConstraint> out;
        for (std::size_t i = 0; i < rels.size(); ++i) {
            // lhs - rhs (rel) 0 → coeffs (rel) rhs-constant
            LinearConstraint c;
            c.coeffs = Vec(numVars_, 0.0);
            for (std::size_t v = 0; v < numVars_; ++v)
                c.coeffs[v] = exprs[i].coeffs[v] - exprs[i + 1].coeffs[v];
            c.rel = rels[i];
            c.rhs = exprs[i + 1].constant - exprs[i].constant;
            c.label = text_;
            out.push_back(std::move(c));
        }
        return out;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    peekIs(char c)
    {
        skipWs();
        return pos_ < text_.size() && text_[pos_] == c;
    }

    Relation
    parseRelation()
    {
        skipWs();
        if (pos_ >= text_.size())
            fatal("constraint '", text_, "': expected relation");
        char c = text_[pos_];
        if (c == '=') {
            ++pos_;
            if (pos_ < text_.size() && text_[pos_] == '=')
                ++pos_;
            return Relation::Eq;
        }
        if (c == '<' || c == '>') {
            ++pos_;
            if (pos_ < text_.size() && text_[pos_] == '=')
                ++pos_;
            return c == '<' ? Relation::Le : Relation::Ge;
        }
        fatal("constraint '", text_, "': bad relation at '", c, "'");
    }

    double
    parseNumber()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' ||
                ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
                 (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))))
            ++pos_;
        if (pos_ == start)
            fatal("constraint '", text_, "': expected number at pos ",
                  start);
        std::string token = text_.substr(start, pos_ - start);
        try {
            return std::stod(token);
        } catch (const std::exception&) {
            // No digits (".") or out of double range ("1e999").
            fatal("constraint '", text_, "': bad number '", token, "'");
        }
    }

    /** term := [number ['*']] Bk | number */
    void
    parseTerm(LinExpr* e, double sign)
    {
        skipWs();
        double coeff = 1.0;
        bool sawNumber = false;
        if (pos_ < text_.size() &&
            (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
             text_[pos_] == '.')) {
            coeff = parseNumber();
            sawNumber = true;
            skipWs();
            if (peekIs('*')) {
                ++pos_;
                skipWs();
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'B' || text_[pos_] == 'b')) {
            ++pos_;
            std::size_t start = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            if (pos_ == start)
                fatal("constraint '", text_, "': 'B' without index");
            std::size_t idx =
                static_cast<std::size_t>(
                    std::stoul(text_.substr(start, pos_ - start)));
            if (idx < 1 || idx > numVars_) {
                fatal("constraint '", text_, "': B", idx,
                      " out of range (network has ", numVars_, " dims)");
            }
            e->coeffs[idx - 1] += sign * coeff;
        } else if (sawNumber) {
            e->constant += sign * coeff;
        } else {
            fatal("constraint '", text_, "': expected term at pos ", pos_);
        }
    }

    LinExpr
    parseExpr()
    {
        LinExpr e;
        e.coeffs = Vec(numVars_, 0.0);
        double sign = 1.0;
        skipWs();
        if (peekIs('-')) {
            sign = -1.0;
            ++pos_;
        } else if (peekIs('+')) {
            ++pos_;
        }
        parseTerm(&e, sign);
        while (true) {
            skipWs();
            if (pos_ >= text_.size())
                break;
            char c = text_[pos_];
            if (c == '+' || c == '-') {
                ++pos_;
                parseTerm(&e, c == '+' ? 1.0 : -1.0);
            } else {
                break;
            }
        }
        return e;
    }

    const std::string& text_;
    std::size_t numVars_;
    std::size_t pos_ = 0;
};

} // namespace

void
ConstraintSet::addParsed(const std::string& text)
{
    ConstraintParser parser(text, numVars_);
    for (auto& c : parser.parse())
        add(std::move(c));
}

double
ConstraintSet::maxViolation(const Vec& x) const
{
    double worst = 0.0;
    for (const auto& c : constraints_)
        worst = std::max(worst, c.violation(x));
    return worst;
}

bool
ConstraintSet::feasible(const Vec& x, double tol) const
{
    return maxViolation(x) <= tol;
}

void
ConstraintSet::canonical(Matrix* a_eq, Vec* b_eq, Matrix* g_le,
                         Vec* h_le) const
{
    *a_eq = Matrix();
    *g_le = Matrix();
    b_eq->clear();
    h_le->clear();
    for (const auto& c : constraints_) {
        switch (c.rel) {
          case Relation::Eq:
            a_eq->appendRow(c.coeffs);
            b_eq->push_back(c.rhs);
            break;
          case Relation::Le:
            g_le->appendRow(c.coeffs);
            h_le->push_back(c.rhs);
            break;
          case Relation::Ge:
            g_le->appendRow(scale(-1.0, c.coeffs));
            h_le->push_back(-c.rhs);
            break;
        }
    }
}

} // namespace libra
